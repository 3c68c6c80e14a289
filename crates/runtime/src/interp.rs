//! Real execution of workload descriptions: a [`SpecProgram`] interprets
//! the same [`LoopSpec`]s the simulator models, against the real bytes of
//! an [`Arena`] — so the runtime, the simulator, and the tests all agree
//! on what a loop *is*.
//!
//! ## Semantics
//!
//! A `LoopSpec` describes reference streams, not arithmetic, so the
//! interpreter fixes a deterministic body for every loop:
//!
//! * 8-byte loops (f64): fold every read operand into an accumulator
//!   (`acc = acc * 0.5 + v`, in `refs` order); each `Write` ref stores
//!   `acc * 0.9 + 0.1`; each `Modify` ref stores
//!   `old * 0.25 + acc * 0.5 + 0.0625`.
//! * 4-byte loops (u32): the same shape with wrapping integer arithmetic.
//!
//! Because floating-point addition is not associative and `Modify` is a
//! read-modify-write, the result is sensitive to iteration *order* — which
//! is precisely what cascaded execution must preserve. Bitwise equality
//! with a sequential run is therefore a strong correctness check of the
//! token protocol.
//!
//! ## Compiled form
//!
//! [`SpecProgram::new`] resolves every ref of every loop once into an op
//! table: mode, address as arena byte arithmetic, and field offset inside
//! one packed iteration record. The table is split once into its reads and
//! its writes, each in `refs` order. There is one loop body, `run_split`,
//! generic over the element type (`Elem`) and over where operands come
//! from (`Operands`: the arena, a packed record, or the replay overlay);
//! `execute`, `execute_packed` and `replay_footprint` differ in the operand
//! source alone. A dispatch table over the loop's (reads, writes) counts
//! (`for_shape!`) hands that body, and the pack and prefetch walks, the
//! ops as fixed-length arrays for the counts the workloads have, so the
//! per-op loops unroll, and as slices for any other count: the same code
//! either way, not a second path.
//!
//! ## Safety model
//!
//! The arena lives in an `UnsafeCell`. Mutation happens only inside
//! [`RealKernel::execute`]/[`RealKernel::execute_packed`], whose contract
//! (enforced by [`crate::runner`]'s token protocol) guarantees exclusivity
//! and happens-before edges. Helper-phase reads (`pack_range`) are proven
//! safe at construction by the `cascade-analyze` dependence analysis:
//! either the operand is never written by the loop (`Packable`), or every
//! aliasing write precedes the read by at least `lag` iterations
//! (`HorizonSafe`) and the runner keeps helpers behind the committed
//! horizon via [`RealKernel::helper_horizon`]. `prefetch_range` issues
//! only architectural hints (plus index-array demand reads, which the
//! analysis proves are never written).
//!
//! Affine addresses are proven in bounds at construction (AN008) and never
//! re-checked. An indirect ref's address depends on index *contents*, which
//! can change afterwards (a bit flip), so every index is checked against
//! the array length in every build before it is dereferenced; a failure
//! panics into the runner's `catch_unwind` ladder (`WorkerPanicked`).

use std::cell::UnsafeCell;
use std::mem::size_of;
use std::ops::Range;
use std::slice::ChunksExact;

use cascade_analyze::{analyze_workload, AnalysisError, Footprint, LoopReport, WorkloadReport};
use cascade_core::{fnv64_words, FNV64_BASIS};
use cascade_trace::diag::{DiagCode, Diagnostic, Severity};
use cascade_trace::{AddressSpace, Arena, LoopSpec, Mode, Pattern, Workload};

use crate::kernel::RealKernel;
use crate::prefetch;

/// A runnable program: workload description + real backing bytes.
#[derive(Debug)]
pub struct SpecProgram {
    workload: Workload,
    report: WorkloadReport,
    /// One compiled op table per loop, in `workload.loops` order.
    code: Vec<LoopCode>,
    arena: UnsafeCell<Arena>,
}

// SAFETY: all mutation of `arena` flows through `RealKernel::execute*`,
// whose contract requires external serialization with happens-before
// edges; concurrent helper reads are proven race-free by the
// `cascade-analyze` verdicts (Packable) or horizon-gated by the runner
// (HorizonSafe) — `SpecProgram::new` rejects everything else.
unsafe impl Sync for SpecProgram {}

impl SpecProgram {
    /// Wrap a workload and its arena, running the `cascade-analyze`
    /// helper-safety analysis over every loop. Returns the typed findings
    /// ([`AnalysisError`]) instead of panicking when a loop cannot run
    /// under the real-thread interpreter: an `Unsafe` operand verdict, a
    /// malformed spec, an unsupported or mixed operand width, or an arena
    /// that does not match the address space.
    pub fn new(workload: Workload, arena: Arena) -> Result<Self, AnalysisError> {
        let mut report = analyze_workload(&workload);
        if arena.len() as u64 != workload.space.extent() {
            report.diagnostics.push(Diagnostic::loop_level(
                DiagCode::ArenaMismatch,
                Severity::Error,
                "",
                format!(
                    "arena does not match the workload's address space \
                     ({} bytes vs extent {})",
                    arena.len(),
                    workload.space.extent()
                ),
            ));
        }
        let report = report.require_rt()?;
        let code = workload
            .loops
            .iter()
            .map(|spec| LoopCode::compile(&workload.space, spec))
            .collect();
        Ok(SpecProgram {
            workload,
            report,
            code,
            arena: UnsafeCell::new(arena),
        })
    }

    /// The wrapped workload (loops, space, indices).
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The helper-safety analysis report the program was admitted under.
    pub fn report(&self) -> &WorkloadReport {
        &self.report
    }

    /// The analysis report of loop `idx`.
    pub fn loop_report(&self, idx: usize) -> &LoopReport {
        &self.report.loops[idx]
    }

    /// A kernel for loop `idx`, runnable by [`crate::runner::try_run_governed`].
    pub fn kernel(&self, idx: usize) -> SpecKernel<'_> {
        SpecKernel {
            prog: self,
            spec: &self.workload.loops[idx],
            report: &self.report.loops[idx],
            code: &self.code[idx],
        }
    }

    /// Number of loops.
    pub fn num_loops(&self) -> usize {
        self.workload.loops.len()
    }

    /// Checksum of the arena. Takes `&mut self` so the borrow checker
    /// proves no kernel (and hence no concurrent run) is outstanding.
    pub fn checksum(&mut self) -> u64 {
        self.arena.get_mut().checksum()
    }

    /// Exclusive access to the arena (same `&mut` soundness argument).
    pub fn arena_mut(&mut self) -> &mut Arena {
        self.arena.get_mut()
    }

    /// Consume the program, returning the arena.
    pub fn into_arena(self) -> Arena {
        self.arena.into_inner()
    }

    #[inline]
    fn base(&self) -> *mut u8 {
        // SAFETY of callers: dereferencing derived pointers follows the
        // kernel contract; taking the base address itself is harmless.
        unsafe { (*self.arena.get()).as_ptr() as *mut u8 }
    }
}

/// The element type of a loop: the body arithmetic of the module docs.
/// Implemented for `f64` and `u32` only: every bit pattern is a value,
/// which the raw reads below rely on.
trait Elem: Copy {
    /// The accumulator before the first operand.
    const ZERO: Self;
    /// Fold read operand `v` into accumulator `self`.
    fn fold(self, v: Self) -> Self;
    /// What a `Write` ref stores for accumulator `self`.
    fn written(self) -> Self;
    /// What a `Modify` ref stores over `old` for accumulator `self`.
    fn modified(self, old: Self) -> Self;
    /// The value a packed-record field holds (`size_of::<Self>()` bytes).
    fn from_field(field: &[u8]) -> Self;
    /// Write `self` into a packed-record field (`size_of::<Self>()` bytes).
    fn to_field(self, field: &mut [u8]);
}

impl Elem for f64 {
    const ZERO: f64 = 0.0;
    fn fold(self, v: f64) -> f64 {
        self * 0.5 + v
    }
    fn written(self) -> f64 {
        self * 0.9 + 0.1
    }
    fn modified(self, old: f64) -> f64 {
        old * 0.25 + self * 0.5 + 0.0625
    }
    #[inline(always)]
    fn from_field(field: &[u8]) -> f64 {
        f64::from_ne_bytes(field.try_into().expect("an 8-byte field"))
    }
    #[inline(always)]
    fn to_field(self, field: &mut [u8]) {
        field.copy_from_slice(&self.to_ne_bytes())
    }
}

impl Elem for u32 {
    const ZERO: u32 = 0;
    fn fold(self, v: u32) -> u32 {
        self.wrapping_mul(2_654_435_761).wrapping_add(v)
    }
    fn written(self) -> u32 {
        self ^ 0x9E37_79B9
    }
    fn modified(self, old: u32) -> u32 {
        old.wrapping_mul(3).wrapping_add(self)
    }
    #[inline(always)]
    fn from_field(field: &[u8]) -> u32 {
        u32::from_ne_bytes(field.try_into().expect("a 4-byte field"))
    }
    #[inline(always)]
    fn to_field(self, field: &mut [u8]) {
        field.copy_from_slice(&self.to_ne_bytes())
    }
}

/// The data side of an indirect ref: index word `idx` selects the element
/// at arena byte `base + elem * idx`, valid for `idx < len`.
#[derive(Debug, Clone, Copy)]
struct Gather {
    base: u64,
    elem: u64,
    len: u64,
}

impl Gather {
    /// Checked in every build: index *contents* can change after
    /// construction (a bit flip), and an unchecked one is a wild address.
    #[inline(always)]
    fn element(self, idx: u32) -> usize {
        if idx as u64 >= self.len {
            index_out_of_range(idx, self.len);
        }
        (self.base + self.elem * idx as u64) as usize
    }
}

#[cold]
#[inline(never)]
fn index_out_of_range(idx: u32, len: u64) -> ! {
    panic!("indirect index {idx} out of range for an array of {len} elements")
}

/// # Safety: `p .. p + size_of::<T>()` is readable, not concurrently written.
#[inline(always)]
unsafe fn read<T: Elem>(p: *const u8) -> T {
    p.cast::<T>().read_unaligned()
}

/// One compiled ref.
#[derive(Debug, Clone, Copy)]
struct Op {
    mode: Mode,
    /// Arena byte `off0 + step * i` holds iteration `i`'s element (affine
    /// ref) or its `u32` index word (indirect ref). AN008 proves both in
    /// bounds for every iteration, so neither is re-checked.
    off0: i64,
    step: i64,
    /// Indirect only: the array the index word selects from.
    gather: Option<Gather>,
    /// Where this ref's field starts inside a packed iteration record: a
    /// read's value, or an indirect write's 4-byte index (an affine write
    /// has none). Fields tile the record in `refs` order.
    field: usize,
}

impl Op {
    #[inline(always)]
    fn at(&self, i: u64) -> usize {
        (self.off0 + self.step * i as i64) as usize
    }
}

/// A loop compiled for the interpreter: what every [`RealKernel`] method
/// of [`SpecKernel`] needs per iteration, resolved once and immutable.
#[derive(Debug)]
struct LoopCode {
    /// The `Read` refs in `refs` order: they fold into the accumulator.
    reads: Vec<Op>,
    /// The `Write` and `Modify` refs in `refs` order: they store after
    /// every read has folded.
    writes: Vec<Op>,
    /// Operand width in bytes: 8 (an f64 loop) or 4 (a u32 loop).
    width: usize,
    /// Bytes one iteration occupies in the packed buffer.
    record_len: usize,
}

impl LoopCode {
    /// Compile `spec`, which the analysis has admitted: refs non-empty,
    /// one operand width (4 or 8), every stream in bounds.
    fn compile(space: &AddressSpace, spec: &LoopSpec) -> LoopCode {
        let width = spec.refs[0].bytes as usize;
        let (mut reads, mut writes, mut record_len) = (Vec::new(), Vec::new(), 0);
        for r in &spec.refs {
            let data = space.array(r.array);
            let (array, first, stride, gather) = match r.pattern {
                Pattern::Affine { base, stride } => (data, base, stride, None),
                Pattern::Indirect {
                    index,
                    ibase,
                    istride,
                } => {
                    let (base, elem) = (data.base, data.elem as u64);
                    // The elements an operand-wide access fits inside: all
                    // of them unless operands outsize elements.
                    let len = (data.bytes() + elem).saturating_sub(width as u64) / elem;
                    let gather = Gather { base, elem, len };
                    (space.array(index), ibase, istride, Some(gather))
                }
            };
            let (mode, field, elem) = (r.mode, record_len, array.elem as i64);
            let (off0, step) = (array.base as i64 + first * elem, stride * elem);
            record_len += match (mode, gather) {
                (Mode::Read, _) => width,
                (_, Some(_)) => size_of::<u32>(),
                (_, None) => 0,
            };
            let op = Op {
                mode,
                off0,
                step,
                gather,
                field,
            };
            match mode {
                Mode::Read => reads.push(op),
                Mode::Write | Mode::Modify => writes.push(op),
            }
        }
        LoopCode {
            reads,
            writes,
            width,
            record_len,
        }
    }
}

/// Evaluate `$body` with `$reads` and `$writes` bound to the reads and
/// writes of `$code`. For the operand counts the workloads have (Synth and
/// spmv are (2, 1); the PARMVR loops and the fissioned sub-loops cover the
/// rest) they are fixed-length arrays, so the per-op loops in `$body`
/// unroll; for any other count they are the table's slices. `$body` is the
/// same code in every arm, so every shape runs one body.
///
/// `ref` borrows the arrays from the table. `copy` copies them into locals,
/// which no store through the arena or a buffer can alias, so the ops stay
/// in registers across iterations; that pays off over a chunk, not over
/// the single iteration `pack_iter` and `prefetch_iter` ask for.
macro_rules! for_shape {
    (@fixed ref, $s:ident, $n:literal) => {
        <&[Op; $n]>::try_from($s).expect("the arm matched the count")
    };
    (@fixed copy, $s:ident, $n:literal) => {
        &{ *<&[Op; $n]>::try_from($s).expect("the arm matched the count") }
    };
    (@arms $how:tt, $r:ident, $w:ident, $reads:ident, $writes:ident, $body:expr;
        $(($nr:literal, $nw:literal)),*) => {
        match ($r.len(), $w.len()) {
            $(($nr, $nw) => {
                let $reads = for_shape!(@fixed $how, $r, $nr);
                let $writes = for_shape!(@fixed $how, $w, $nw);
                $body
            })*
            _ => {
                let ($reads, $writes) = ($r, $w);
                $body
            }
        }
    };
    ($how:tt $code:expr, |$reads:ident, $writes:ident| $body:expr) => {{
        let (reads, writes) = ($code.reads.as_slice(), $code.writes.as_slice());
        for_shape!(@arms $how, reads, writes, $reads, $writes, $body;
            (2, 1), (1, 1), (3, 1), (4, 1), (0, 1), (1, 2), (2, 2), (1, 0))
    }};
}

/// Where an iteration's operands come from and where its stores go, given
/// the base of the program's arena. The defaults are plain arena access;
/// each source overrides what differs and holds only what that takes.
///
/// # Safety (every method): the caller upholds the contract of the
/// [`RealKernel`] method the source serves, and `at` is an offset
/// [`Operands::target`] returned.
trait Operands {
    /// Called once before each iteration's accesses, in iteration order.
    #[inline(always)]
    fn next_iteration(&mut self) {}

    /// The index word of indirect ref `op` at iteration `i`, read from the
    /// *arena* (real memory, like real generated code would). Index arrays
    /// are validated to never be written by the loop, so it cannot race.
    #[inline(always)]
    unsafe fn index(&self, arena: *mut u8, op: &Op, i: u64) -> u32 {
        read(arena.add(op.at(i)))
    }

    /// The arena byte offset ref `op` addresses at iteration `i`.
    #[inline(always)]
    unsafe fn target(&self, arena: *mut u8, op: &Op, i: u64) -> usize {
        match op.gather {
            None => op.at(i),
            Some(g) => g.element(self.index(arena, op, i)),
        }
    }

    #[inline(always)]
    unsafe fn load<T: Elem>(&self, arena: *mut u8, at: usize) -> T {
        read(arena.add(at))
    }

    #[inline(always)]
    unsafe fn store<T: Elem>(&mut self, arena: *mut u8, at: usize, v: T) {
        arena.add(at).cast::<T>().write_unaligned(v)
    }

    /// The value of read ref `op` at iteration `i`.
    #[inline(always)]
    unsafe fn operand<T: Elem>(&self, arena: *mut u8, op: &Op, i: u64) -> T {
        self.load(arena, self.target(arena, op, i))
    }
}

/// `execute` and the pack side: everything straight from the arena.
struct Direct;

impl Operands for Direct {}

/// `execute_packed`: read values and indirect write indices come from the
/// iteration's packed record; stores (and `Modify` loads) hit the arena.
struct Packed<'b> {
    /// The records of the iterations still to run, one per iteration.
    records: ChunksExact<'b, u8>,
    /// The current iteration's record.
    record: &'b [u8],
}

impl Packed<'_> {
    #[inline(always)]
    fn field<T: Elem>(&self, op: &Op) -> T {
        T::from_field(&self.record[op.field..op.field + size_of::<T>()])
    }
}

impl Operands for Packed<'_> {
    #[inline(always)]
    fn next_iteration(&mut self) {
        self.record = self
            .records
            .next()
            .expect("execute_packed checked one record per iteration");
    }

    #[inline(always)]
    unsafe fn index(&self, _arena: *mut u8, op: &Op, _i: u64) -> u32 {
        self.field(op)
    }

    #[inline(always)]
    unsafe fn operand<T: Elem>(&self, _arena: *mut u8, op: &Op, _i: u64) -> T {
        self.field(op)
    }
}

/// `replay_footprint`: addresses as in `execute`, but every access inside
/// the chunk's write footprint goes to the private overlay, so a verifier
/// never writes shared memory. Both accessors are inlined, like the
/// defaults they replace: left as calls, they cost a dense replay about a
/// quarter of its time.
struct Replay<'o>(&'o mut Overlay);

impl Operands for Replay<'_> {
    /// Overlay first, shared arena for everything outside the footprint:
    /// the replayed range is committed and no `execute` runs concurrently
    /// (the verifier holds the downstream claim), so the fallback read
    /// cannot race a writer.
    #[inline(always)]
    unsafe fn load<T: Elem>(&self, arena: *mut u8, at: usize) -> T {
        match self.0.get(at as u64, size_of::<T>() as u64) {
            Some(bytes) => read(bytes.as_ptr()),
            None => read(arena.add(at)),
        }
    }

    /// Every write ref's elements lie inside its own footprint by
    /// construction, so a miss is an interpreter bug, not a data condition.
    #[inline(always)]
    unsafe fn store<T: Elem>(&mut self, _arena: *mut u8, at: usize, v: T) {
        let bytes = self.0.get_mut(at as u64, size_of::<T>() as u64);
        let bytes = bytes.expect("replay store inside the write footprint");
        bytes.as_mut_ptr().cast::<T>().write_unaligned(v)
    }
}

/// The loop body of the module docs over `range` — the only copy. Every
/// read folds in `refs` order, then every write stores in `refs` order.
/// `execute`, `execute_packed` and `replay_footprint` differ in `S` alone,
/// so they cannot drift apart (a divergence between the first and the last
/// *is* a false corruption alarm). [`for_shape!`] picks the lists.
///
/// # Safety: as [`Operands`]; `arena` is the base of the program's arena.
#[inline(always)]
unsafe fn run_split<T: Elem, S: Operands>(
    reads: &[Op],
    writes: &[Op],
    arena: *mut u8,
    range: Range<u64>,
    src: &mut S,
) {
    for i in range {
        src.next_iteration();
        let mut acc = T::ZERO;
        for op in reads {
            acc = acc.fold(src.operand(arena, op, i));
        }
        for op in writes {
            let at = src.target(arena, op, i);
            let v = if op.mode == Mode::Modify {
                acc.modified(src.load(arena, at))
            } else {
                acc.written()
            };
            src.store(arena, at, v);
        }
        // A loop that stores nothing must still compute its reads.
        if writes.is_empty() {
            std::hint::black_box(acc);
        }
    }
}

/// Sort `(lo, hi)` byte intervals and merge overlaps/adjacency into a
/// disjoint ascending list — the shape the replay overlay, the arena
/// scrubber, and the out-of-footprint corruption targeter all share.
fn merge_intervals(fps: &[Footprint]) -> Vec<(u64, u64)> {
    let mut ivals: Vec<(u64, u64)> = fps.iter().map(|f| (f.lo, f.hi)).collect();
    ivals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in ivals {
        match merged.last_mut() {
            Some(m) if lo <= m.1 => m.1 = m.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    merged
}

/// A private view of a committed chunk's write footprint: disjoint,
/// sorted address intervals backed by owned bytes, seeded from the
/// chunk's undo journal. The verification replay
/// ([`RealKernel::replay_footprint`]) routes every footprint access here,
/// so shared memory is never written by a verifier.
struct Overlay {
    /// `(lo, hi, bytes)`, sorted by `lo`, pairwise disjoint.
    segs: Vec<(u64, u64, Vec<u8>)>,
}

impl Overlay {
    /// Build the overlay for `fps` (journal order) seeded from
    /// `pre_image` (journal layout). Overlapping footprints captured the
    /// same pre-chunk bytes, so double-seeding is consistent. `None` when
    /// the pre-image does not match the footprints' total size.
    fn seed(fps: &[Footprint], pre_image: &[u8]) -> Option<Overlay> {
        let mut segs: Vec<(u64, u64, Vec<u8>)> = merge_intervals(fps)
            .into_iter()
            .map(|(lo, hi)| (lo, hi, vec![0u8; (hi - lo) as usize]))
            .collect();
        let mut cur = 0usize;
        for f in fps {
            let len = (f.hi - f.lo) as usize;
            let src = pre_image.get(cur..cur + len)?;
            let seg = segs
                .iter_mut()
                .find(|(lo, hi, _)| f.lo >= *lo && f.hi <= *hi)?;
            let off = (f.lo - seg.0) as usize;
            seg.2[off..off + len].copy_from_slice(src);
            cur += len;
        }
        if cur != pre_image.len() {
            return None;
        }
        Some(Overlay { segs })
    }

    /// Segment and offset within it of `[addr, addr + n)`, if covered. An
    /// access is never split across a segment boundary: footprints cover
    /// whole elements of the accessed array, and arrays are disjoint in
    /// the address space.
    fn locate(&self, addr: u64, n: u64) -> Option<(usize, Range<usize>)> {
        // `cmp` comparison result aliased so scripts/lint_atomics.sh
        // (which pins atomics-using files by pattern-matching the
        // memory-order path) does not mistake this pure binary search
        // for an atomics site.
        use std::cmp::Ordering as SegCmp;
        let by_addr = |&(lo, hi, _): &(u64, u64, Vec<u8>)| {
            if addr < lo {
                SegCmp::Greater
            } else if addr >= hi {
                SegCmp::Less
            } else {
                SegCmp::Equal
            }
        };
        let i = self.segs.binary_search_by(by_addr).ok()?;
        let (lo, hi, _) = self.segs[i];
        let off = (addr - lo) as usize;
        (addr + n <= hi).then(|| (i, off..off + n as usize))
    }

    /// The overlay bytes of `[addr, addr + n)`, if covered.
    fn get(&self, addr: u64, n: u64) -> Option<&[u8]> {
        let (i, bytes) = self.locate(addr, n)?;
        Some(&self.segs[i].2[bytes])
    }

    /// Mutable counterpart of [`Overlay::get`].
    fn get_mut(&mut self, addr: u64, n: u64) -> Option<&mut [u8]> {
        let (i, bytes) = self.locate(addr, n)?;
        Some(&mut self.segs[i].2[bytes])
    }
}

/// One loop of a [`SpecProgram`], as a [`RealKernel`].
pub struct SpecKernel<'p> {
    prog: &'p SpecProgram,
    spec: &'p LoopSpec,
    report: &'p LoopReport,
    code: &'p LoopCode,
}

impl<'p> SpecKernel<'p> {
    /// The spec this kernel interprets.
    pub fn spec(&self) -> &LoopSpec {
        self.spec
    }

    /// The helper-safety report of this loop.
    pub fn report(&self) -> &LoopReport {
        self.report
    }

    /// Run `range` through the loop body, `src` supplying operands.
    ///
    /// # Safety: as [`Operands`].
    #[inline(always)]
    unsafe fn run<S: Operands>(&self, range: Range<u64>, src: &mut S) {
        let arena = self.prog.base();
        if self.code.width == size_of::<f64>() {
            for_shape!(copy self.code, |reads, writes| {
                run_split::<f64, S>(reads, writes, arena, range, src)
            })
        } else {
            for_shape!(copy self.code, |reads, writes| {
                run_split::<u32, S>(reads, writes, arena, range, src)
            })
        }
    }

    /// Pack `range` into `records`, which holds one record per iteration:
    /// each read's value and each indirect write's index at the op's field.
    ///
    /// # Safety: as [`RealKernel::pack_range`]'s helper reads.
    #[inline(always)]
    unsafe fn pack_as<T: Elem>(&self, range: Range<u64>, records: &mut [u8]) {
        let arena = self.prog.base();
        for_shape!(ref self.code, |reads, writes| {
            for (i, rec) in range.zip(records.chunks_exact_mut(self.code.record_len)) {
                for op in reads.iter() {
                    let v: T = Direct.operand(arena, op, i);
                    v.to_field(&mut rec[op.field..op.field + size_of::<T>()]);
                }
                for op in writes.iter().filter(|op| op.gather.is_some()) {
                    let idx = Direct.index(arena, op, i);
                    idx.to_field(&mut rec[op.field..op.field + size_of::<u32>()]);
                }
            }
        })
    }

    /// The arena's byte intervals outside every write footprint of the
    /// whole loop, ascending, or `None` when a footprint is unresolvable.
    fn unwritten(&self) -> Option<Vec<(u64, u64)>> {
        let fps = self.write_footprints(0..self.spec.iters)?;
        let mut gaps = Vec::new();
        let mut cursor = 0u64;
        // A sentinel footprint at the arena's end closes the last gap.
        let end = (self.prog.workload.space.extent(), u64::MAX);
        for (lo, hi) in merge_intervals(&fps).into_iter().chain([end]) {
            if cursor < lo {
                gaps.push((cursor, lo));
            }
            cursor = cursor.max(hi);
        }
        Some(gaps)
    }

    /// The write-ref footprints of `range` in journal order (the byte
    /// layout of [`RealKernel::journal_capture`]), or `None` when any is
    /// unresolvable.
    fn write_footprints(&self, range: Range<u64>) -> Option<Vec<Footprint>> {
        cascade_analyze::write_set(&self.prog.workload, self.spec, range)
    }
}

impl<'p> RealKernel for SpecKernel<'p> {
    fn iters(&self) -> u64 {
        self.spec.iters
    }

    unsafe fn execute(&self, range: Range<u64>) {
        self.run(range, &mut Direct)
    }

    #[inline]
    fn prefetch_iter(&self, i: u64) {
        self.prefetch_range(i..i + 1)
    }

    fn prefetch_range(&self, range: Range<u64>) {
        let (arena, width) = (self.prog.base() as *const u8, self.code.width);
        let hint = |op: &Op, i: u64| {
            let mut at = op.at(i);
            if let Some(g) = op.gather {
                // SAFETY: reading the index value only (never written by
                // this loop); the read brings its line in, so it takes no
                // hint. The data target itself is merely hinted, so it
                // needs no bounds check.
                let idx = unsafe { read::<u32>(arena.wrapping_add(at)) };
                at = (g.base + g.elem * idx as u64) as usize;
            }
            prefetch::prefetch_range(arena.wrapping_add(at), width);
        };
        for_shape!(ref self.code, |reads, writes| {
            for i in range {
                for op in reads.iter() {
                    hint(op, i);
                }
                for op in writes.iter() {
                    hint(op, i);
                }
            }
        })
    }

    fn helper_horizon(&self) -> Option<u64> {
        self.report.helper_lag()
    }

    fn prefetch_bytes_per_iter(&self) -> u64 {
        // Mirrors `prefetch_range` exactly: 4 index bytes per indirect
        // stream (read, not hinted), plus each stream's data footprint.
        let ops = || self.code.reads.iter().chain(&self.code.writes);
        let index_bytes = ops().filter(|op| op.gather.is_some()).count() * size_of::<u32>();
        (index_bytes + ops().count() * self.code.width) as u64
    }

    #[inline]
    fn pack_iter(&self, i: u64, buf: &mut Vec<u8>) -> bool {
        self.pack_range(i..i + 1, buf)
    }

    fn pack_range(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        let record_len = self.code.record_len;
        if record_len == 0 {
            return true; // nothing to pack: no reads, no indirect writes
        }
        let from = buf.len();
        let n = (range.end - range.start) as usize * record_len;
        // Zero-fill the records the walk then overwrites in place. For the
        // one record `pack_iter` appends, a fixed-size store and a truncate
        // beat the `memset` call a variable-length `resize` makes.
        if n <= 32 {
            buf.extend_from_slice(&[0; 32]);
            buf.truncate(from + n);
        } else {
            buf.resize(from + n, 0);
        }
        let records = &mut buf[from..];
        // SAFETY: the analysis proved a packed read is either never written
        // by the loop (Packable) or only by iterations the horizon gate has
        // already committed (HorizonSafe + runner-enforced
        // `helper_horizon`); index arrays are never written (validated).
        unsafe {
            if self.code.width == size_of::<f64>() {
                self.pack_as::<f64>(range, records)
            } else {
                self.pack_as::<u32>(range, records)
            }
        }
        true
    }

    unsafe fn execute_packed(&self, range: Range<u64>, buf: &[u8]) {
        let record_len = self.code.record_len;
        let (need, held) = ((range.end - range.start) as usize * record_len, buf.len());
        assert!(
            held <= need,
            "packed buffer overrun: buffer holds {held} bytes, its iterations consume {need}"
        );
        assert!(
            held == need,
            "packed buffer underrun: need {record_len} bytes at offset {}, buffer holds {held} bytes",
            held - held % record_len
        );
        if record_len == 0 {
            // No field to take from a record: the iterations run as `execute`.
            return self.run(range, &mut Direct);
        }
        let mut src = Packed {
            records: buf.chunks_exact(record_len),
            record: &[],
        };
        self.run(range, &mut src)
    }

    fn journal_range_exact(&self) -> bool {
        // A write footprint is range-exact when its interval holds only
        // bytes the range itself writes: contiguous affine strides
        // (|stride| == 1, ascending or descending). A wider stride
        // leaves gap bytes inside the interval that another range may
        // own, and an indirect scatter's interval is the whole target
        // array — both would make a concurrent capture race a writer.
        self.spec
            .refs
            .iter()
            .filter(|r| r.mode.writes())
            .all(|r| matches!(r.pattern, Pattern::Affine { stride, .. } if stride.abs() == 1))
    }

    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        buf.clear();
        // Unresolvable write footprint: no journal bound exists. Loops
        // `SpecProgram::new` admits never hit this (rt_ok rejects unsafe
        // write verdicts), but the contract allows it, so degrade to the
        // fail-stop gate rather than panic.
        let Some(fps) = self.write_footprints(range) else {
            return false;
        };
        for fp in &fps {
            // SAFETY: the footprint is analyzer-bounded inside the arena
            // (past-the-end streams are rejected at construction), and we
            // hold the chunk's claim, so no concurrent writer exists while
            // these bytes are read.
            let bytes = unsafe {
                std::slice::from_raw_parts(
                    self.prog.base().add(fp.lo as usize),
                    (fp.hi - fp.lo) as usize,
                )
            };
            buf.extend_from_slice(bytes);
        }
        true
    }

    unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
        let fps = self
            .write_footprints(range)
            .expect("rollback follows a successful capture over the same range");
        let mut cur = 0usize;
        for fp in &fps {
            let len = (fp.hi - fp.lo) as usize;
            // Overlapping footprints restore safely: every captured byte
            // is pre-chunk state, so repeated restores are idempotent.
            // SAFETY: same in-bounds argument as the capture, and the
            // claim is still held — the interrupted executor is us.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    buf[cur..cur + len].as_ptr(),
                    self.prog.base().add(fp.lo as usize),
                    len,
                );
            }
            cur += len;
        }
        debug_assert_eq!(cur, buf.len(), "journal fully consumed");
    }

    unsafe fn replay_footprint(&self, range: Range<u64>, pre_image: &[u8]) -> Option<Vec<u8>> {
        let fps = self.write_footprints(range.clone())?;
        let mut ov = Overlay::seed(&fps, pre_image)?;
        self.run(range, &mut Replay(&mut ov));
        // Read the replayed bytes back out in journal layout, mirroring
        // what `journal_capture` over the committed state would return.
        let mut out = Vec::with_capacity(pre_image.len());
        for f in &fps {
            out.extend_from_slice(ov.get(f.lo, f.hi - f.lo).expect("seeded footprint"));
        }
        Some(out)
    }

    unsafe fn corrupt_byte(
        &self,
        range: Range<u64>,
        offset: u64,
        xor: u8,
        in_footprint: bool,
    ) -> bool {
        if in_footprint {
            let Some(fps) = self.write_footprints(range) else {
                return false;
            };
            let total: u64 = fps.iter().map(|f| f.hi - f.lo).sum();
            if total == 0 {
                return false;
            }
            let mut pos = offset % total;
            for f in &fps {
                let len = f.hi - f.lo;
                if pos < len {
                    // SAFETY: inside an analyzer-bounded footprint (hence
                    // in-bounds), and the caller holds the chunk's claim.
                    unsafe {
                        let p = self.prog.base().add((f.lo + pos) as usize);
                        *p ^= xor;
                    }
                    return true;
                }
                pos -= len;
            }
            unreachable!("pos < total walks into some footprint");
        } else {
            // Target a byte *outside* every write footprint of the whole
            // loop — corruption no per-chunk verifier can see.
            let Some(gaps) = self.unwritten() else {
                return false;
            };
            let Some(&(first, _)) = gaps.first() else {
                return false; // footprints cover the whole arena
            };
            let start = offset % self.prog.workload.space.extent();
            let addr = gaps
                .iter()
                .find(|(_, hi)| *hi > start)
                .map_or(first, |(lo, _)| start.max(*lo)); // else wrap around
                                                          // SAFETY: `addr` is inside a gap (hence the arena), claim held.
            unsafe {
                let p = self.prog.base().add(addr as usize);
                *p ^= xor;
            }
            true
        }
    }

    unsafe fn scrub_digest(&self) -> Option<u64> {
        let mut h = FNV64_BASIS;
        for (lo, hi) in self.unwritten()? {
            // SAFETY: `[lo, hi)` is inside the arena and outside every
            // write footprint; the quiescence contract rules out
            // concurrent writers anyway.
            h = fnv64_words(h, unsafe {
                std::slice::from_raw_parts(self.prog.base().add(lo as usize), (hi - lo) as usize)
            });
        }
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultyKernel};
    use crate::govern::RunConfig;
    use crate::runner::{try_run_governed, FaultEvent, RtPolicy, RunnerConfig, Tolerance};
    use cascade_trace::{AddressSpace, IndexStore, StreamRef};
    use std::time::Duration;

    fn scatter_workload(n: u64) -> (Workload, Arena) {
        let mut space = AddressSpace::new();
        let rho = space.alloc("rho", 8, n / 4);
        let pq = space.alloc("pq", 8, n);
        let ij = space.alloc("ij", 4, n);
        let mut index = IndexStore::new();
        // Colliding scatter: many iterations hit the same element, so the
        // result depends on iteration order (RMW chain).
        index.set(ij, (0..n).map(|i| ((i * 7919) % (n / 4)) as u32).collect());
        let spec = LoopSpec {
            name: "scatter".into(),
            iters: n,
            refs: vec![
                StreamRef {
                    name: "pq(i)",
                    array: pq,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Read,
                    bytes: 8,
                    hoistable: false,
                },
                StreamRef {
                    name: "rho(ij(i))",
                    array: rho,
                    pattern: Pattern::Indirect {
                        index: ij,
                        ibase: 0,
                        istride: 1,
                    },
                    mode: Mode::Modify,
                    bytes: 8,
                    hoistable: false,
                },
            ],
            compute: 2.0,
            hoistable_compute: 0.0,
            hoist_result_bytes: 0,
        };
        let w = Workload {
            space,
            index,
            loops: vec![spec],
        };
        let mut arena = Arena::new(&w.space);
        for i in 0..n {
            arena.set_f64(&w.space, pq, i, (i % 13) as f64 * 0.125 + 0.25);
        }
        arena.install_indices(&w.space, &w.index);
        (w, arena)
    }

    fn run_once(policy: RtPolicy, threads: usize, n: u64) -> u64 {
        let (w, arena) = scatter_workload(n);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let k = prog.kernel(0);
        try_run_governed(
            &k,
            &RunConfig::from(RunnerConfig {
                nthreads: threads,
                iters_per_chunk: 257,
                policy,
                poll_batch: 16,
            }),
        )
        .unwrap();
        prog.checksum()
    }

    fn sequential_checksum(n: u64) -> u64 {
        let (w, arena) = scatter_workload(n);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let k = prog.kernel(0);
        // SAFETY: single-threaded.
        unsafe { k.execute(0..k.iters()) };
        prog.checksum()
    }

    #[test]
    fn cascaded_scatter_is_bitwise_sequential() {
        let n = 8_192;
        let expected = sequential_checksum(n);
        for policy in [RtPolicy::None, RtPolicy::Prefetch, RtPolicy::Restructure] {
            for threads in [1, 2, 4] {
                let got = run_once(policy, threads, n);
                assert_eq!(got, expected, "policy {policy:?} threads {threads}");
            }
        }
    }

    #[test]
    fn packed_execution_matches_unpacked_exactly() {
        let (w, arena) = scatter_workload(4096);
        let mut p1 = SpecProgram::new(w.clone(), arena.clone()).unwrap();
        let mut p2 = SpecProgram::new(w, arena).unwrap();
        {
            let k = p1.kernel(0);
            // SAFETY: single-threaded.
            unsafe { k.execute(0..k.iters()) };
        }
        {
            let k = p2.kernel(0);
            let mut buf = Vec::new();
            for i in 0..k.iters() {
                assert!(k.pack_iter(i, &mut buf));
            }
            // SAFETY: single-threaded.
            unsafe { k.execute_packed(0..k.iters(), &buf) };
        }
        assert_eq!(p1.checksum(), p2.checksum());
    }

    #[test]
    #[should_panic(expected = "packed buffer underrun")]
    fn truncated_packed_buffer_reports_underrun_with_context() {
        let (w, arena) = scatter_workload(64);
        let prog = SpecProgram::new(w, arena).unwrap();
        let k = prog.kernel(0);
        let mut buf = Vec::new();
        for i in 0..4 {
            assert!(k.pack_iter(i, &mut buf));
        }
        buf.truncate(buf.len() - 3); // corrupt: last operand is short
                                     // SAFETY: single-threaded.
        unsafe { k.execute_packed(0..4, &buf) };
    }

    #[test]
    fn prefetch_iter_is_pure() {
        let (w, arena) = scatter_workload(1024);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let before = prog.checksum();
        let k = prog.kernel(0);
        for i in 0..k.iters() {
            k.prefetch_iter(i);
        }
        assert_eq!(prog.checksum(), before);
    }

    /// The old validator banned *any* read of a written array; the
    /// analyzer proves this disjoint-halves loop is packable and admits
    /// it — and the run stays bitwise-sequential on real threads.
    #[test]
    fn disjoint_read_of_written_array_is_admitted_and_correct() {
        let mut space = AddressSpace::new();
        let a = space.alloc("a", 8, 64);
        let spec = LoopSpec {
            name: "inplace".into(),
            iters: 32,
            refs: vec![
                StreamRef {
                    name: "a(i)",
                    array: a,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Read,
                    bytes: 8,
                    hoistable: false,
                },
                StreamRef {
                    name: "a(i+32)",
                    array: a,
                    pattern: Pattern::Affine {
                        base: 32,
                        stride: 1,
                    },
                    mode: Mode::Write,
                    bytes: 8,
                    hoistable: false,
                },
            ],
            compute: 1.0,
            hoistable_compute: 0.0,
            hoist_result_bytes: 0,
        };
        let w = Workload {
            space,
            index: IndexStore::new(),
            loops: vec![spec],
        };
        let mut arena = Arena::new(&w.space);
        for i in 0..64 {
            arena.set_f64(&w.space, a, i, i as f64 * 0.5 + 1.0);
        }
        let expected = {
            let mut prog = SpecProgram::new(w.clone(), arena.clone()).unwrap();
            let k = prog.kernel(0);
            // SAFETY: single-threaded.
            unsafe { k.execute(0..k.iters()) };
            prog.checksum()
        };
        let mut prog = SpecProgram::new(w, arena).unwrap();
        assert_eq!(
            prog.loop_report(0).find_ref("a(i)").unwrap().verdict,
            cascade_analyze::Verdict::Packable
        );
        assert_eq!(prog.kernel(0).helper_horizon(), None);
        let k = prog.kernel(0);
        try_run_governed(
            &k,
            &RunConfig::from(RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 4,
                policy: RtPolicy::Restructure,
                poll_batch: 4,
            }),
        )
        .unwrap();
        assert_eq!(prog.checksum(), expected);
    }

    /// A first-order recurrence (read y(i-1), write y(i)) was formerly
    /// unrunnable on real threads; the analyzer classifies the carried
    /// read HorizonSafe{lag: 1} and the horizon-gated runner keeps the
    /// cascaded run bitwise-sequential under every policy.
    #[test]
    fn recurrence_is_horizon_safe_and_bitwise_on_threads() {
        let mut space = AddressSpace::new();
        let n = 4096u64;
        let x = space.alloc("x", 8, n);
        let y = space.alloc("y", 8, n + 1);
        let spec = LoopSpec {
            name: "recurrence".into(),
            iters: n,
            refs: vec![
                StreamRef {
                    name: "x(i)",
                    array: x,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Read,
                    bytes: 8,
                    hoistable: false,
                },
                StreamRef {
                    name: "y(i-1)",
                    array: y,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Read,
                    bytes: 8,
                    hoistable: false,
                },
                StreamRef {
                    name: "y(i)",
                    array: y,
                    pattern: Pattern::Affine { base: 1, stride: 1 },
                    mode: Mode::Write,
                    bytes: 8,
                    hoistable: false,
                },
            ],
            compute: 2.0,
            hoistable_compute: 0.0,
            hoist_result_bytes: 0,
        };
        let w = Workload {
            space,
            index: IndexStore::new(),
            loops: vec![spec],
        };
        let mut arena = Arena::new(&w.space);
        for i in 0..n {
            arena.set_f64(&w.space, x, i, (i % 17) as f64 * 0.25 - 1.0);
        }
        arena.set_f64(&w.space, y, 0, 0.75);
        let expected = {
            let mut prog = SpecProgram::new(w.clone(), arena.clone()).unwrap();
            let k = prog.kernel(0);
            // SAFETY: single-threaded.
            unsafe { k.execute(0..k.iters()) };
            prog.checksum()
        };
        for policy in [RtPolicy::None, RtPolicy::Prefetch, RtPolicy::Restructure] {
            for threads in [2, 4] {
                let mut prog = SpecProgram::new(w.clone(), arena.clone()).unwrap();
                assert_eq!(prog.kernel(0).helper_horizon(), Some(1));
                let k = prog.kernel(0);
                try_run_governed(
                    &k,
                    &RunConfig::from(RunnerConfig {
                        nthreads: threads,
                        iters_per_chunk: 129,
                        policy,
                        poll_batch: 8,
                    }),
                )
                .unwrap();
                assert_eq!(
                    prog.checksum(),
                    expected,
                    "policy {policy:?} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn mixed_widths_are_rejected() {
        let mut space = AddressSpace::new();
        let a = space.alloc("a", 8, 64);
        let b = space.alloc("b", 4, 64);
        let spec = LoopSpec {
            name: "mixed".into(),
            iters: 32,
            refs: vec![
                StreamRef {
                    name: "a(i)",
                    array: a,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Read,
                    bytes: 8,
                    hoistable: false,
                },
                StreamRef {
                    name: "b(i)",
                    array: b,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Write,
                    bytes: 4,
                    hoistable: false,
                },
            ],
            compute: 1.0,
            hoistable_compute: 0.0,
            hoist_result_bytes: 0,
        };
        let w = Workload {
            space,
            index: IndexStore::new(),
            loops: vec![spec],
        };
        let arena = Arena::new(&w.space);
        let err = SpecProgram::new(w, arena).unwrap_err();
        assert!(err.has_code(cascade_trace::DiagCode::MixedWidth), "{err}");
        assert!(format!("{err}").contains("uniform operand width"), "{err}");
    }

    #[test]
    fn arena_mismatch_is_a_typed_error() {
        let (w, _) = scatter_workload(64);
        let (_, small_arena) = scatter_workload(32);
        let err = SpecProgram::new(w, small_arena).unwrap_err();
        assert!(
            err.has_code(cascade_trace::DiagCode::ArenaMismatch),
            "{err}"
        );
    }

    #[test]
    fn past_the_end_stream_is_rejected() {
        // The interpreter never checks an affine address per iteration, so
        // a stream whose elements run past its array would corrupt
        // neighboring arrays — the analyzer must reject it up front (AN008).
        let mut space = AddressSpace::new();
        let a = space.alloc("a", 8, 48);
        let spec = LoopSpec {
            name: "overshoot".into(),
            iters: 64,
            refs: vec![StreamRef {
                name: "a(i)",
                array: a,
                pattern: Pattern::Affine { base: 0, stride: 1 },
                mode: Mode::Write,
                bytes: 8,
                hoistable: false,
            }],
            compute: 1.0,
            hoistable_compute: 0.0,
            hoist_result_bytes: 0,
        };
        let w = Workload {
            space,
            index: IndexStore::new(),
            loops: vec![spec],
        };
        let arena = Arena::new(&w.space);
        let err = SpecProgram::new(w, arena).unwrap_err();
        assert!(err.has_code(cascade_trace::DiagCode::OutOfBounds), "{err}");
    }

    #[test]
    fn journal_rollback_restores_an_interrupted_chunk_bitwise() {
        // Capture the undo journal for a chunk, run only a *prefix* of it
        // (a mid-mutation interruption), then roll back: the whole
        // program state must return to its exact pre-chunk bytes.
        let (w, arena) = scatter_workload(2_048);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let pristine = prog.checksum();
        let range = 512u64..1024;
        let mut jbuf = Vec::new();
        {
            let k = prog.kernel(0);
            // SAFETY: single-threaded test, trivially exclusive.
            assert!(unsafe { k.journal_capture(range.clone(), &mut jbuf) });
            assert!(!jbuf.is_empty());
            // SAFETY: as above.
            unsafe { k.execute(range.start..range.start + 100) };
        }
        assert_ne!(prog.checksum(), pristine, "the prefix must mutate state");
        {
            let k = prog.kernel(0);
            // SAFETY: single-threaded; `jbuf` is the unmodified capture
            // over the same range.
            unsafe { k.journal_rollback(range, &jbuf) };
        }
        assert_eq!(prog.checksum(), pristine, "rollback must restore bitwise");
    }

    #[test]
    fn mid_mutation_panic_rolls_back_and_retries_in_cascade() {
        // The acceptance path for journaled recovery: a kernel with *no*
        // fail-stop promise panics after partial writes; the worker rolls
        // the chunk's journal back, hands it to a survivor, and the run
        // finishes cascaded and bitwise-equal to sequential.
        let n = 8_192;
        let expected = sequential_checksum(n);
        let (w, arena) = scatter_workload(n);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let stats = {
            let plan =
                FaultPlan::new(257).inject(7, FaultKind::PanicMidMutation { after_iters: 100 });
            let k = FaultyKernel::new(prog.kernel(0), plan);
            try_run_governed(
                &k,
                &RunConfig {
                    runner: RunnerConfig {
                        nthreads: 3,
                        iters_per_chunk: 257,
                        policy: RtPolicy::None,
                        poll_batch: 4,
                    },
                    tolerance: Tolerance::retrying(Duration::from_millis(50)),
                    ..Default::default()
                },
            )
            .expect("journaled retry must recover in-cascade")
        };
        assert!(
            !stats.degraded,
            "retry must stay cascaded, not salvage: {:?}",
            stats.faults
        );
        assert_eq!(stats.retries, 1);
        let rolled = stats
            .faults
            .iter()
            .position(|f| matches!(f, FaultEvent::ChunkRolledBack { chunk: 7, .. }))
            .unwrap_or_else(|| panic!("missing rollback event: {:?}", stats.faults));
        let retried = stats
            .faults
            .iter()
            .position(|f| matches!(f, FaultEvent::ChunkRetried { chunk: 7, .. }))
            .unwrap_or_else(|| panic!("missing retry event: {:?}", stats.faults));
        assert!(
            rolled < retried,
            "rollback must happen-before the re-execution: {:?}",
            stats.faults
        );
        assert_eq!(stats.threads.iter().map(|t| t.rollbacks).sum::<u64>(), 1);
        assert!(stats.threads.iter().map(|t| t.journal_bytes).sum::<u64>() > 0);
        assert_eq!(prog.checksum(), expected, "retried run must be bitwise");
    }

    #[test]
    fn replay_reproduces_committed_bytes_without_touching_shared_memory() {
        // Execute a chunk, then replay it from its pre-image: the replay
        // must reproduce the committed footprint bytes exactly (this is
        // the verification read path) while leaving the arena untouched.
        let (w, arena) = scatter_workload(2_048);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let range = 512u64..1024;
        let (pre, committed, replayed) = {
            let k = prog.kernel(0);
            let mut pre = Vec::new();
            // SAFETY: single-threaded test, trivially exclusive.
            unsafe {
                assert!(k.journal_capture(range.clone(), &mut pre));
                k.execute(range.clone());
            }
            let mut committed = Vec::new();
            // SAFETY: as above.
            unsafe { assert!(k.journal_capture(range.clone(), &mut committed)) };
            assert_ne!(pre, committed, "the chunk must mutate its footprint");
            // SAFETY: range committed, single-threaded.
            let replayed = unsafe { k.replay_footprint(range.clone(), &pre) }
                .expect("SpecKernel footprints are resolvable");
            (pre, committed, replayed)
        };
        assert_eq!(replayed, committed, "clean replay matches the commit");
        let after = prog.checksum();
        {
            let k = prog.kernel(0);
            // SAFETY: as above.
            let again = unsafe { k.replay_footprint(range.clone(), &pre) }.unwrap();
            assert_eq!(again, replayed, "replay is deterministic");
        }
        assert_eq!(prog.checksum(), after, "replay never writes shared memory");
        // Now corrupt one committed byte: a fresh replay disagrees with
        // what the arena holds — exactly the mismatch the verifier hunts.
        {
            let k = prog.kernel(0);
            // SAFETY: single-threaded.
            unsafe {
                assert!(k.corrupt_byte(range.clone(), 7, 0x40, true));
            }
            let mut now = Vec::new();
            // SAFETY: as above.
            unsafe { assert!(k.journal_capture(range, &mut now)) };
            assert_ne!(now, replayed, "the flip is visible in the footprint");
        }
    }

    #[test]
    fn out_of_footprint_flip_is_invisible_to_the_chunk_but_moves_the_scrub() {
        let (mut w, mut arena) = scatter_workload(1_024);
        // Confine the scatter to the middle of `rho` (elements 64..192 of
        // 256), so the unwritten bytes form two gaps: `rho`'s head, and
        // its tail with `pq` and `ij` behind it.
        let Pattern::Indirect { index: ij, .. } = w.loops[0].refs[1].pattern else {
            unreachable!("scatter_workload's second ref is the scatter")
        };
        w.index
            .set(ij, (0..1_024).map(|i| 64 + (i * 7919) % 128).collect());
        arena.install_indices(&w.space, &w.index);
        let prog = SpecProgram::new(w, arena).unwrap();
        let k = prog.kernel(0);
        // SAFETY: single-threaded throughout.
        unsafe {
            let scrub0 = k.scrub_digest().expect("resolvable footprints");
            let mut fp0 = Vec::new();
            assert!(k.journal_capture(0..k.iters(), &mut fp0));
            assert!(k.corrupt_byte(0..256, 12345, 0x01, false));
            let mut fp1 = Vec::new();
            assert!(k.journal_capture(0..k.iters(), &mut fp1));
            assert_eq!(fp0, fp1, "the flip landed outside every write footprint");
            let scrub1 = k.scrub_digest().unwrap();
            assert_ne!(scrub0, scrub1, "the scrubber sees it");
            // Flip it back: the scrub digest returns to its old value.
            assert!(k.corrupt_byte(0..256, 12345, 0x01, false));
            assert_eq!(k.scrub_digest().unwrap(), scrub0);
            // Every gap's edges count too: the scrub hashes gaps in place,
            // word by word from each gap's own start, so the first and the
            // last byte of each are where a slicing mistake would show.
            let gaps = k.unwritten().unwrap();
            assert_eq!(gaps.len(), 2, "{gaps:?}");
            for (lo, hi) in gaps {
                for addr in [lo, hi - 1] {
                    assert!(k.corrupt_byte(0..256, addr, 0x80, false));
                    assert_ne!(k.scrub_digest().unwrap(), scrub0, "flip at {addr} unseen");
                    assert!(k.corrupt_byte(0..256, addr, 0x80, false));
                    assert_eq!(k.scrub_digest().unwrap(), scrub0, "restore at {addr}");
                }
            }
        }
    }

    #[test]
    fn mid_mutation_panic_salvages_bitwise_after_rollback() {
        // Salvage-only tolerance: the journaled rollback makes the faulted
        // chunk pristine, so the sequential completion pass re-runs it
        // soundly — `salvage_unsound` no longer fires for journalable
        // kernels.
        let n = 8_192;
        let expected = sequential_checksum(n);
        let (w, arena) = scatter_workload(n);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let stats = {
            let plan =
                FaultPlan::new(257).inject(7, FaultKind::PanicMidMutation { after_iters: 100 });
            let k = FaultyKernel::new(prog.kernel(0), plan);
            try_run_governed(
                &k,
                &RunConfig {
                    runner: RunnerConfig {
                        nthreads: 3,
                        iters_per_chunk: 257,
                        policy: RtPolicy::None,
                        poll_batch: 4,
                    },
                    tolerance: Tolerance::resilient(Duration::from_millis(50)),
                    ..Default::default()
                },
            )
            .expect("journaled salvage must recover")
        };
        assert!(stats.degraded);
        assert!(
            stats
                .faults
                .iter()
                .any(|f| matches!(f, FaultEvent::ChunkRolledBack { chunk: 7, .. })),
            "missing rollback event: {:?}",
            stats.faults
        );
        assert!(
            stats
                .faults
                .iter()
                .any(|f| matches!(f, FaultEvent::Salvaged { from_chunk: 7, .. })),
            "missing salvage event: {:?}",
            stats.faults
        );
        assert_eq!(prog.checksum(), expected, "salvaged run must be bitwise");
    }
}
