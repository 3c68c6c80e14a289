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
//! source alone. The replay has two: `Rebased` fixes each op's base once
//! per chunk (the arena, or the overlay segment its hull lies in), so a
//! replay runs at `execute` speed; `Replay` looks every access up in the
//! overlay, for chunks whose ops cannot be fixed that way. A dispatch table over the loop's (reads, writes) counts
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
//! analysis proves are never written), and `pack_range` hints every
//! write target the same way, as the simulator's `helper_pack` does.
//!
//! Affine addresses are proven in bounds at construction (AN008) and never
//! re-checked. An indirect ref's address depends on index *contents*, which
//! can change afterwards (a bit flip), so every index is checked against
//! the array length in every build before it is dereferenced; a failure
//! panics into the runner's `catch_unwind` ladder (`WorkerPanicked`).

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::size_of;
use std::ops::Range;
use std::slice::ChunksExact;
use std::sync::{Mutex, OnceLock};

use cascade_analyze::{analyze_workload, AnalysisError, Footprint, LoopReport, WorkloadReport};
use cascade_core::{fnv64_words, FNV64_BASIS};
use cascade_trace::diag::{DiagCode, Diagnostic, Severity};
use cascade_trace::{AddressSpace, Arena, LoopSpec, Mode, Pattern, StreamRef, Workload};

use crate::kernel::RealKernel;
use crate::prefetch;

/// A runnable program: workload description + real backing bytes.
#[derive(Debug)]
pub struct SpecProgram {
    workload: Workload,
    report: WorkloadReport,
    /// One compiled op table per loop, in `workload.loops` order.
    code: Vec<LoopCode>,
    /// Per loop, what its kernels remember of its footprints.
    memos: Vec<Memo>,
    arena: UnsafeCell<Arena>,
}

/// What a loop's kernels remember of its footprints.
#[derive(Debug, Default)]
struct Memo {
    /// The last [`MEMO_WAYS`] ranges asked for and their write
    /// footprints, oldest first ([`SpecKernel::write_footprints`]).
    footprints: Mutex<VecDeque<(Range<u64>, Vec<Footprint>)>>,
    /// The unwritten gaps cut into scrub blocks, computed on the first
    /// scrub ([`SpecKernel::gaps`]).
    gaps: OnceLock<Option<Gaps>>,
}

/// Ranges a loop's footprint memo keeps: a chunk's executor and the
/// audit of an earlier chunk, running beside it, each find their own.
const MEMO_WAYS: usize = 4;

/// Bytes per arena-scrub block: a loop's unwritten gaps are cut at every
/// multiple of this arena offset, and each block is hashed on its own
/// ([`RealKernel::scrub_block`]), one share of the work the runner's
/// workers split.
pub const SCRUB_BLOCK: u64 = 1 << 20;

/// A loop's unwritten gaps, cut at every multiple of [`SCRUB_BLOCK`].
#[derive(Debug)]
struct Gaps {
    /// The gap pieces, ascending; none crosses a block boundary.
    pieces: Vec<(u64, u64)>,
    /// Block `b` holds `pieces[starts[b]..starts[b + 1]]`.
    starts: Box<[usize]>,
}

impl Gaps {
    /// Cut `gaps` (disjoint, ascending) at the block boundaries. A block
    /// is the gap bytes of one [`SCRUB_BLOCK`]-aligned window; a window
    /// with no gap byte is no block.
    fn cut(gaps: Vec<(u64, u64)>) -> Self {
        let (mut pieces, mut starts) = (Vec::new(), Vec::new());
        for (mut lo, hi) in gaps {
            while lo < hi {
                let window = lo / SCRUB_BLOCK;
                let end = hi.min((window + 1) * SCRUB_BLOCK);
                if pieces
                    .last()
                    .is_none_or(|&(prev, _)| prev / SCRUB_BLOCK != window)
                {
                    starts.push(pieces.len());
                }
                pieces.push((lo, end));
                lo = end;
            }
        }
        starts.push(pieces.len());
        let starts = starts.into_boxed_slice();
        Gaps { pieces, starts }
    }

    /// Block `b`'s pieces, ascending.
    fn block(&self, b: usize) -> &[(u64, u64)] {
        &self.pieces[self.starts[b]..self.starts[b + 1]]
    }
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
        let memos = std::iter::repeat_with(Memo::default)
            .take(workload.loops.len())
            .collect();
        Ok(SpecProgram {
            workload,
            report,
            code,
            memos,
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
            memo: &self.memos[idx],
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

    /// The arena byte offset of this ref's element at iteration `i`, for
    /// a prefetch hint; `index` yields an indirect ref's index word, given
    /// the word's offset. Unchecked, unlike [`Gather::element`]: a hint
    /// never dereferences, so a corrupted index is left to the executor's
    /// check, and panics there, not in a helper.
    #[inline(always)]
    fn hinted(&self, i: u64, index: impl FnOnce(usize) -> u32) -> usize {
        let mut at = self.at(i);
        if let Some(g) = self.gather {
            at = (g.base + g.elem * index(at) as u64) as usize;
        }
        at
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
/// [`RealKernel`] method the source serves.
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
    unsafe fn offset(&self, arena: *mut u8, op: &Op, i: u64) -> usize {
        match op.gather {
            None => op.at(i),
            Some(g) => g.element(self.index(arena, op, i)),
        }
    }

    /// Where the `T`-wide access of ref `op` at iteration `i` reads and
    /// writes. `k` is the op's slot, its place in the loop's reads and
    /// then its writes, for a source that resolves each op once per call.
    #[inline(always)]
    unsafe fn target<T: Elem>(&self, arena: *mut u8, op: &Op, k: usize, i: u64) -> *mut u8 {
        let _ = k;
        arena.add(self.offset(arena, op, i))
    }

    /// The value of read ref `op` (slot `k`) at iteration `i`.
    #[inline(always)]
    unsafe fn operand<T: Elem>(&self, arena: *mut u8, op: &Op, k: usize, i: u64) -> T {
        read(self.target::<T>(arena, op, k, i))
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
    unsafe fn operand<T: Elem>(&self, _arena: *mut u8, op: &Op, _k: usize, _i: u64) -> T {
        self.field(op)
    }
}

/// `replay_footprint`'s per-access path: addresses as in `execute`, but
/// every access inside the chunk's write footprint goes to the private
/// [`Overlay`], found by a segment lookup per access, so a verifier never
/// writes shared memory. It replays a chunk whose ops cannot each be
/// fixed to one base ([`Rebased`]), serves [`Rebased`]'s stray accesses,
/// and is the oracle the rebased path is tested against. `target` is
/// inlined, like the default it replaces: left as a call, it costs a
/// dense replay about a quarter of its time.
#[derive(Clone, Copy)]
struct Replay<'o> {
    /// The overlay's bytes ([`Overlay::bytes`]), written through this
    /// pointer only while the replay runs.
    bytes: *mut u8,
    segs: &'o [Seg],
}

impl Replay<'_> {
    /// Offset in the overlay's bytes of `[addr, addr + n)`, if covered. An
    /// access is never split across a segment boundary: footprints cover
    /// whole elements of the accessed array, arrays are disjoint in the
    /// address space, and touching footprints share a segment.
    fn locate(&self, addr: u64, n: u64) -> Option<usize> {
        // `cmp` comparison result aliased so scripts/lint_atomics.sh
        // (which pins atomics-using files by pattern-matching the
        // memory-order path) does not mistake this pure binary search
        // for an atomics site.
        use std::cmp::Ordering as SegCmp;
        let by_addr = |s: &Seg| {
            if addr < s.lo {
                SegCmp::Greater
            } else if addr >= s.hi {
                SegCmp::Less
            } else {
                SegCmp::Equal
            }
        };
        let s = self.segs[self.segs.binary_search_by(by_addr).ok()?];
        (addr + n <= s.hi).then(|| s.at + (addr - s.lo) as usize)
    }

    /// Overlay first, shared arena for everything outside the footprint:
    /// the replayed range is committed and no `execute` runs concurrently
    /// (the verifier holds the downstream claim), so an arena read cannot
    /// race a writer. Every write ref's elements lie inside its own
    /// footprint by construction, so a store that misses is an
    /// interpreter bug, not a data condition.
    ///
    /// # Safety: as [`Operands`]; `at` is the arena offset of a
    /// `n`-byte access of the replayed chunk.
    #[inline(always)]
    unsafe fn resolve(&self, arena: *mut u8, store: bool, at: usize, n: usize) -> *mut u8 {
        match self.locate(at as u64, n as u64) {
            Some(off) => self.bytes.add(off),
            None => {
                assert!(!store, "replay store inside the write footprint");
                arena.add(at)
            }
        }
    }

    /// [`Replay::resolve`] for the rare access [`Rebased`] cannot place.
    /// Everything it takes is a copy: a reference into the replay's
    /// locals would let the loop body's stores alias them, and the ops
    /// would be reloaded after every store.
    ///
    /// # Safety: as [`Replay::resolve`].
    #[cold]
    #[inline(never)]
    unsafe fn stray(self, arena: *mut u8, store: bool, at: usize, n: usize) -> *mut u8 {
        self.resolve(arena, store, at, n)
    }
}

impl Operands for Replay<'_> {
    #[inline(always)]
    unsafe fn target<T: Elem>(&self, arena: *mut u8, op: &Op, _k: usize, i: u64) -> *mut u8 {
        let at = self.offset(arena, op, i);
        self.resolve(arena, op.mode.writes(), at, size_of::<T>())
    }
}

/// Most ops a [`Rebased`] replay places, with room to spare over the
/// widest loop the workloads have (five refs). A wider loop replays per
/// access ([`Replay`]).
const MAX_SLOTS: usize = 14;

/// Where one op's accesses go for the whole of a rebased replay.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The element at arena offset `at` is at `base + at` (wrapping): the
    /// arena itself, or an overlay segment's bytes shifted down by the
    /// segment's address.
    base: *mut u8,
    /// First arena offset the slot covers, and how far past it an access
    /// may start and still fit: checked for indirect ops only, whose
    /// index words may have changed since the hull was taken. The arena's
    /// slot admits every offset.
    lo: usize,
    reach: usize,
}

/// `replay_footprint` at `execute` speed. Over the chunk, every op's
/// accesses stay inside one overlay segment or clear of all of them
/// ([`SpecKernel::slots`] checks it on the op's hull), so each op reads
/// and writes through a base fixed once per chunk: no lookup per access.
/// An indirect op's element is still checked against its segment, and
/// one that strays (its index word changed since the hull was taken)
/// takes [`Replay`]'s lookup, so both paths place every access alike.
struct Rebased<'o> {
    /// One per op, in slot order (see [`Operands::target`]).
    slots: [Slot; MAX_SLOTS],
    view: Replay<'o>,
}

impl Operands for Rebased<'_> {
    #[inline(always)]
    unsafe fn target<T: Elem>(&self, arena: *mut u8, op: &Op, k: usize, i: u64) -> *mut u8 {
        let s = self.slots[k];
        match op.gather {
            None => s.base.wrapping_add(op.at(i)),
            Some(g) => {
                let at = g.element(self.index(arena, op, i));
                if at.wrapping_sub(s.lo) <= s.reach {
                    s.base.wrapping_add(at)
                } else {
                    self.view.stray(arena, op.mode.writes(), at, size_of::<T>())
                }
            }
        }
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
        for (k, op) in reads.iter().enumerate() {
            acc = acc.fold(src.operand(arena, op, k, i));
        }
        for (k, op) in writes.iter().enumerate() {
            let at = src.target::<T>(arena, op, reads.len() + k, i);
            let v = if op.mode == Mode::Modify {
                acc.modified(read(at))
            } else {
                acc.written()
            };
            at.cast::<T>().write_unaligned(v);
        }
        // A loop that stores nothing must still compute its reads.
        if writes.is_empty() {
            std::hint::black_box(acc);
        }
    }
}

/// Sort `(lo, hi)` byte intervals and merge overlaps/adjacency into a
/// disjoint ascending list — the shape the arena scrubber and the
/// out-of-footprint corruption targeter share.
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

/// One run of overlay bytes: arena addresses `[lo, hi)` are held at
/// `Overlay::bytes[at..at + (hi - lo)]`.
#[derive(Debug, Clone, Copy)]
struct Seg {
    lo: u64,
    hi: u64,
    at: usize,
}

/// A private view of a committed chunk's write footprint, seeded from the
/// chunk's undo journal. The verification replay
/// ([`RealKernel::replay_footprint`]) routes every footprint access here,
/// so a verifier never writes shared memory, and the replay's result is
/// the overlay's bytes themselves: no readout copy.
///
/// The bytes are in journal layout (the byte order of
/// [`RealKernel::journal_capture`]), so a footprint that touches no other
/// one is its own segment, in place. Footprints that touch or overlap are
/// merged into one segment, a scratch run past the journal, copied back
/// into each footprint's piece when the replay ends.
struct Overlay {
    /// The journal layout, then any scratch runs.
    bytes: Vec<u8>,
    /// Sorted by `lo`, pairwise disjoint and not touching.
    segs: Vec<Seg>,
    /// `(piece, len, run)`: journal bytes `[piece, piece + len)` are held
    /// at `run` during the replay.
    shared: Vec<(usize, usize, usize)>,
    /// Length of the journal layout.
    journal_len: usize,
}

impl Overlay {
    /// Build the overlay for `fps` (journal order) seeded from
    /// `pre_image` (journal layout). Overlapping footprints captured the
    /// same pre-chunk bytes, so seeding a shared run from each of them is
    /// consistent. `None` when the pre-image does not match the
    /// footprints' total size.
    fn seed(fps: &[Footprint], pre_image: &[u8]) -> Option<Overlay> {
        // Each footprint's address interval and its piece of the journal.
        let mut at = 0usize;
        let mut pieces: Vec<Seg> = fps
            .iter()
            .map(|f| {
                let seg = Seg {
                    lo: f.lo,
                    hi: f.hi,
                    at,
                };
                at += (f.hi - f.lo) as usize;
                seg
            })
            .collect();
        if at != pre_image.len() {
            return None;
        }
        pieces.sort_unstable_by_key(|p| (p.lo, p.hi));
        let mut ov = Overlay {
            bytes: pre_image.to_vec(),
            segs: Vec::with_capacity(pieces.len()),
            shared: Vec::new(),
            journal_len: at,
        };
        let mut rest = &pieces[..];
        while let [first, ..] = rest {
            // The pieces that touch or overlap `first`, transitively.
            let (mut n, mut hi) = (1, first.hi);
            while let Some(p) = rest.get(n).filter(|p| p.lo <= hi) {
                hi = hi.max(p.hi);
                n += 1;
            }
            let (group, tail) = rest.split_at(n);
            if let [alone] = group {
                ov.segs.push(*alone);
            } else {
                let run = ov.bytes.len();
                ov.bytes.resize(run + (hi - first.lo) as usize, 0);
                for p in group {
                    let (off, len) = (run + (p.lo - first.lo) as usize, (p.hi - p.lo) as usize);
                    ov.bytes.copy_within(p.at..p.at + len, off);
                    ov.shared.push((p.at, len, off));
                }
                ov.segs.push(Seg {
                    lo: first.lo,
                    hi,
                    at: run,
                });
            }
            rest = tail;
        }
        Some(ov)
    }

    /// The per-access view a replay runs against.
    fn view(&mut self) -> Replay<'_> {
        Replay {
            bytes: self.bytes.as_mut_ptr(),
            segs: &self.segs,
        }
    }

    /// The replayed write-set in journal layout.
    fn finish(mut self) -> Vec<u8> {
        for &(piece, len, run) in &self.shared {
            self.bytes.copy_within(run..run + len, piece);
        }
        self.bytes.truncate(self.journal_len);
        self.bytes
    }
}

/// One loop of a [`SpecProgram`], as a [`RealKernel`].
pub struct SpecKernel<'p> {
    prog: &'p SpecProgram,
    spec: &'p LoopSpec,
    report: &'p LoopReport,
    code: &'p LoopCode,
    memo: &'p Memo,
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
    /// Every write target stays in place and is hinted into the cache, so
    /// the executor's stores find their lines warm.
    ///
    /// # Safety: as [`RealKernel::pack_range`]'s helper reads.
    #[inline(always)]
    unsafe fn pack_as<T: Elem>(&self, range: Range<u64>, records: &mut [u8]) {
        let arena = self.prog.base();
        for_shape!(ref self.code, |reads, writes| {
            for (i, rec) in range.zip(records.chunks_exact_mut(self.code.record_len)) {
                for (k, op) in reads.iter().enumerate() {
                    let v: T = Direct.operand(arena, op, k, i);
                    v.to_field(&mut rec[op.field..op.field + size_of::<T>()]);
                }
                for op in writes.iter() {
                    let at = op.hinted(i, |word| {
                        let idx: u32 = read(arena.add(word));
                        idx.to_field(&mut rec[op.field..op.field + size_of::<u32>()]);
                        idx
                    });
                    prefetch::prefetch_range(arena.wrapping_add(at), size_of::<T>());
                }
            }
        })
    }

    /// The arena's byte intervals outside every write footprint of the
    /// whole loop, ascending, or `None` when a footprint is unresolvable.
    fn unwritten(&self) -> Option<Vec<(u64, u64)>> {
        let fps = cascade_analyze::write_set(&self.prog.workload, self.spec, 0..self.spec.iters)?;
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

    /// This loop's unwritten gaps cut into scrub blocks, or `None` when a
    /// footprint is unresolvable. Computed once, by the first caller: the
    /// spec and the index contents are fixed for the program's life.
    fn gaps(&self) -> Option<&'p Gaps> {
        self.memo
            .gaps
            .get_or_init(|| self.unwritten().map(Gaps::cut))
            .as_ref()
    }

    /// The write-ref footprints of `range` in journal order (the byte
    /// layout of [`RealKernel::journal_capture`]), or `None` when any is
    /// unresolvable.
    ///
    /// A verified chunk asks for one range up to five times (its
    /// executor's write spans, pre-image capture and commit digest, its
    /// auditor's replay and comparison), and an indirect write's
    /// footprint is a scan of the chunk's index words, so a loop with
    /// one keeps the last few answers. An audit that runs beside later
    /// chunks' executions then usually finds its chunk's answer, and
    /// evicts none of theirs. It depends on the range alone: the spec
    /// and the index contents are fixed for the program's life. Affine
    /// footprints are closed form, cheaper than the memo's lock and
    /// copy. A memo another thread holds is passed by, not waited for:
    /// split stages journal their chunks concurrently.
    fn write_footprints(&self, range: Range<u64>) -> Option<Vec<Footprint>> {
        let scans = self
            .spec
            .refs
            .iter()
            .any(|r| r.mode.writes() && !r.pattern.is_affine());
        let Some(mut kept) = scans
            .then(|| self.memo.footprints.try_lock().ok())
            .flatten()
        else {
            return cascade_analyze::write_set(&self.prog.workload, self.spec, range);
        };
        if let Some((_, fps)) = kept.iter().find(|(r, _)| *r == range) {
            return Some(fps.clone());
        }
        let fps = cascade_analyze::write_set(&self.prog.workload, self.spec, range.clone())?;
        if kept.len() == MEMO_WAYS {
            kept.pop_front();
        }
        kept.push_back((range, fps.clone()));
        Some(fps)
    }

    /// Every op's [`Slot`] for replaying `range` against `view`, whose
    /// segments hold `fps` (the write footprints, in `writes` order).
    /// An op on an array the loop never writes reads the arena: no write
    /// footprint reaches into it. Any other op is placed by its hull over
    /// `range`: inside one segment, rebased into it; an affine hull clear
    /// of every segment, the arena. `None` sends the chunk down the
    /// per-access path: a hull that straddles a segment boundary, an
    /// indirect hull outside the footprint (its index words decide per
    /// access), or more ops than slots.
    fn slots(
        &self,
        range: Range<u64>,
        fps: &[Footprint],
        view: &Replay<'_>,
    ) -> Option<[Slot; MAX_SLOTS]> {
        let refs = &self.spec.refs;
        if refs.len() > MAX_SLOTS {
            return None;
        }
        let arena = Slot {
            base: self.prog.base(),
            lo: 0,
            reach: usize::MAX,
        };
        let mut slots = [arena; MAX_SLOTS];
        let written = |r: &StreamRef| refs.iter().any(|w| w.mode.writes() && w.array == r.array);
        // Slot order: the reads, then the writes, each in `refs` order. A
        // read of an array no write reaches needs no hull (`None`), and
        // one whose hull cannot be resolved (`Some(None)`) is not placed.
        let reads = refs.iter().filter(|r| r.mode == Mode::Read);
        let hulls = reads.map(|r| {
            written(r)
                .then(|| cascade_analyze::ref_footprint(&self.prog.workload, r, range.clone()))
        });
        for (slot, hull) in slots
            .iter_mut()
            .zip(hulls.chain(fps.iter().map(|f| Some(Some(*f)))))
        {
            let Some(hull) = hull else { continue };
            let hull = hull?;
            match view.segs.iter().find(|s| hull.lo < s.hi && s.lo < hull.hi) {
                Some(s) if s.lo <= hull.lo && hull.hi <= s.hi => {
                    *slot = Slot {
                        base: view.bytes.wrapping_add(s.at).wrapping_sub(s.lo as usize),
                        lo: s.lo as usize,
                        reach: (s.hi - s.lo) as usize - self.code.width,
                    }
                }
                None if hull.exact => {}
                _ => return None,
            }
        }
        Some(slots)
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
            // SAFETY: reading the index value only (never written by this
            // loop); the read brings its line in, so it takes no hint.
            let at = op.hinted(i, |word| unsafe { read::<u32>(arena.wrapping_add(word)) });
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
        // Write targets are only hinted, never demand-read.
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

    unsafe fn visit_footprint(&self, range: Range<u64>, visit: &mut dyn FnMut(&[u8])) -> bool {
        // Unresolvable write footprint: no journal bound exists. Loops
        // `SpecProgram::new` admits never hit this (rt_ok rejects unsafe
        // write verdicts), but the contract allows it, so degrade to the
        // fail-stop gate rather than panic.
        let Some(fps) = self.write_footprints(range) else {
            return false;
        };
        for fp in &fps {
            // SAFETY: the footprint is analyzer-bounded inside the arena
            // (past-the-end streams are rejected at construction), and the
            // caller holds the chunk's claim, so no concurrent writer
            // exists while these bytes are read.
            visit(unsafe {
                std::slice::from_raw_parts(
                    self.prog.base().add(fp.lo as usize),
                    (fp.hi - fp.lo) as usize,
                )
            });
        }
        true
    }

    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        buf.clear();
        // SAFETY: forwarded under the caller's exclusivity guarantee.
        unsafe { self.visit_footprint(range, &mut |bytes| buf.extend_from_slice(bytes)) }
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
        let view = ov.view();
        match self.slots(range.clone(), &fps, &view) {
            Some(slots) => self.run(range, &mut Rebased { slots, view }),
            None => self.run(range, &mut { view }),
        }
        Some(ov.finish())
    }

    fn write_spans(&self, range: Range<u64>) -> Option<Vec<Range<u64>>> {
        let fps = self.write_footprints(range)?;
        Some(fps.iter().map(|f| f.lo..f.hi).collect())
    }

    fn independent(&self, committed: &[Range<u64>], next: &[Range<u64>]) -> bool {
        // Every read is of an array the loop never writes; a `Modify`
        // reads only its own element, inside its write footprint. So the
        // two chunks meet only where their write footprints do.
        let refs = &self.spec.refs;
        let written = |r: &StreamRef| refs.iter().any(|w| w.mode.writes() && w.array == r.array);
        let disjoint = |a: &Range<u64>, b: &Range<u64>| a.end <= b.start || b.end <= a.start;
        refs.iter().all(|r| r.mode != Mode::Read || !written(r))
            && committed
                .iter()
                .all(|a| next.iter().all(|b| disjoint(a, b)))
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
            let Some(gaps) = self.gaps() else {
                return false;
            };
            let Some(&(first, _)) = gaps.pieces.first() else {
                return false; // footprints cover the whole arena
            };
            let start = offset % self.prog.workload.space.extent();
            let addr = gaps
                .pieces
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

    fn scrub_blocks(&self) -> Option<usize> {
        self.gaps().map(|g| g.starts.len() - 1)
    }

    unsafe fn scrub_block(&self, b: usize) -> (Range<u64>, u64) {
        let pieces = self
            .gaps()
            .expect("scrub_blocks resolved the gaps")
            .block(b);
        let first = pieces.first().expect("every block holds a piece");
        let last = pieces.last().expect("every block holds a piece");
        let digest = pieces.iter().fold(FNV64_BASIS, |h, &(lo, hi)| {
            // SAFETY: `[lo, hi)` is inside the arena and outside every
            // write footprint; the quiescence contract rules out
            // concurrent writers anyway.
            fnv64_words(h, unsafe {
                std::slice::from_raw_parts(self.prog.base().add(lo as usize), (hi - lo) as usize)
            })
        });
        (first.0..last.1, digest)
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

    /// A scatter index past its array is packed word for word and its
    /// target only hinted, so the helper neither checks nor panics; the
    /// executor's check, reading the index from the record, does.
    #[test]
    fn a_wild_scatter_index_is_packed_unchecked_and_caught_by_the_executor() {
        let (w, arena) = scatter_workload(64);
        let (ij, _) = w.space.iter().find(|(_, d)| d.name == "ij").unwrap();
        let mut prog = SpecProgram::new(w.clone(), arena).unwrap();
        prog.arena_mut().set_u32(&w.space, ij, 5, u32::MAX);
        let k = prog.kernel(0);
        let mut buf = Vec::new();
        assert!(k.pack_range(0..8, &mut buf));
        let (len, field) = (k.code.record_len, k.code.writes[0].field);
        assert_eq!(buf[5 * len + field..][..4], u32::MAX.to_ne_bytes());
        let run = std::panic::AssertUnwindSafe(|| {
            // SAFETY: single-threaded.
            unsafe { k.execute_packed(0..8, &buf) }
        });
        let panicked = std::panic::catch_unwind(run);
        let msg = *panicked.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(
            msg,
            "indirect index 4294967295 out of range for an array of 16 elements"
        );
    }

    /// The runtime's helper warms the lines the simulated one prefetches:
    /// for every write ref of the PARMVR loops and of both synthetic
    /// variants, over one chunk, the hinted address (its index from the
    /// packed record, as `pack_range` hints, or from the arena, as
    /// `prefetch_range` does) is the simulator's `data_access` address.
    #[test]
    fn write_hints_match_the_simulated_helpers_prefetches() {
        use cascade_synth::{Synth, Variant};
        let parmvr = cascade_wave5::Parmvr::build(cascade_wave5::ParmvrParams {
            scale: 0.005,
            seed: 9,
        });
        let synth = [Variant::Dense, Variant::Sparse]
            .map(|v| Synth::build(4_096, v, 5))
            .map(|s| (s.workload, s.arena));
        let mut refs = 0;
        for (w, arena) in std::iter::once((parmvr.workload, parmvr.arena)).chain(synth) {
            let prog = SpecProgram::new(w, arena).unwrap();
            let w = prog.workload();
            let res = cascade_trace::Resolver::new(&w.space, &w.index);
            for l in 0..prog.num_loops() {
                let k = prog.kernel(l);
                let chunk = 0..k.iters().min(2_048);
                let mut buf = Vec::new();
                assert!(k.pack_range(chunk.clone(), &mut buf));
                let len = k.code.record_len;
                let written: Vec<_> = k.spec.refs.iter().filter(|r| r.mode.writes()).collect();
                assert_eq!(k.code.writes.len(), written.len());
                for (op, r) in k.code.writes.iter().zip(written) {
                    for (n, i) in chunk.clone().enumerate() {
                        let field = &buf[n * len + op.field..];
                        let packed = op.hinted(i, |_| u32::from_field(&field[..4]));
                        // SAFETY: single-threaded; an index word is in the arena.
                        let direct = op.hinted(i, |word| unsafe { read(prog.base().add(word)) });
                        let want = res.data_access(r, i).addr;
                        assert_eq!(
                            (packed as u64, direct as u64),
                            (want, want),
                            "{} {} at {i}",
                            k.spec.name,
                            r.name
                        );
                    }
                    refs += 1;
                }
            }
        }
        // One write ref per PARMVR loop but L8 (a reduction), one per
        // synthetic variant.
        assert_eq!(refs, 14 + 2);
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

    /// One loop over `arrays` (name, element bytes, length, padding
    /// after it), their data filled deterministically, with the index
    /// contents `index` installs.
    fn one_loop(
        arrays: &[(&str, u32, u64, u64)],
        refs: impl Fn(&[cascade_trace::ArrayId]) -> Vec<StreamRef>,
        iters: u64,
        index: impl Fn(&[cascade_trace::ArrayId], &mut IndexStore),
    ) -> SpecProgram {
        let mut space = AddressSpace::new();
        let ids: Vec<_> = arrays
            .iter()
            .map(|&(name, elem, len, pad)| {
                let id = space.alloc(name, elem, len);
                if pad > 0 {
                    space.alloc("pad", 1, pad);
                }
                id
            })
            .collect();
        let mut idx = IndexStore::new();
        index(&ids, &mut idx);
        let w = Workload {
            space,
            index: idx,
            loops: vec![LoopSpec {
                name: "l".into(),
                iters,
                refs: refs(&ids),
                compute: 1.0,
                hoistable_compute: 0.0,
                hoist_result_bytes: 0,
            }],
        };
        let mut arena = Arena::new(&w.space);
        for (&id, &(_, elem, len, _)) in ids.iter().zip(arrays) {
            for i in 0..len {
                let v = (i * 2_654_435_761 % 1_000_003) as u32;
                match elem {
                    8 => arena.set_f64(&w.space, id, i, v as f64 * 0.125),
                    _ => arena.set_u32(&w.space, id, i, v),
                }
            }
        }
        arena.install_indices(&w.space, &w.index);
        SpecProgram::new(w, arena).expect("an admitted loop")
    }

    fn stream(
        name: &'static str,
        array: cascade_trace::ArrayId,
        mode: Mode,
        pattern: Pattern,
    ) -> StreamRef {
        StreamRef {
            name,
            array,
            pattern,
            mode,
            bytes: 8,
            hoistable: false,
        }
    }

    fn affine(base: i64) -> Pattern {
        Pattern::Affine { base, stride: 1 }
    }

    /// What [`replay_both_ways`] saw, over all chunks.
    #[derive(Debug, Default, PartialEq)]
    struct Replays {
        /// Chunks `slots` placed, so `replay_footprint` ran rebased.
        rebased: u64,
        /// Chunks whose replay reproduced the committed bytes.
        matched: u64,
        /// Most overlay segments in one chunk.
        segs: usize,
        /// Chunks with a scratch run (touching or overlapping footprints).
        shared: u64,
    }

    /// Execute `prog`'s loop chunk by chunk; after each chunk, let
    /// `tamper` change the arena, then replay the chunk both ways —
    /// `replay_footprint` (rebased wherever `slots` places every op) and
    /// the per-access [`Replay`] source over the same overlay — and
    /// require the same bytes from both.
    fn replay_both_ways(
        prog: &SpecProgram,
        chunk: u64,
        tamper: impl Fn(&SpecKernel<'_>, Range<u64>),
    ) -> Replays {
        let k = prog.kernel(0);
        let (mut pre, mut post, mut seen) = (Vec::new(), Vec::new(), Replays::default());
        let mut start = 0;
        while start < k.iters() {
            let range = start..(start + chunk).min(k.iters());
            start = range.end;
            let fps = k.write_footprints(range.clone()).unwrap();
            // SAFETY (here and below): single-threaded, so every call is
            // exclusive and `range` is committed once executed.
            unsafe {
                assert!(k.journal_capture(range.clone(), &mut pre));
                k.execute(range.clone());
                assert!(k.journal_capture(range.clone(), &mut post));
            }
            tamper(&k, range.clone());
            let rebased = unsafe { k.replay_footprint(range.clone(), &pre) }.unwrap();
            let mut ov = Overlay::seed(&fps, &pre).unwrap();
            seen.segs = seen.segs.max(ov.segs.len());
            seen.shared += !ov.shared.is_empty() as u64;
            let view = ov.view();
            seen.rebased += k.slots(range.clone(), &fps, &view).is_some() as u64;
            unsafe { k.run(range.clone(), &mut { view }) };
            let per_access = ov.finish();
            assert_eq!(rebased, per_access, "chunk {range:?}: the two paths differ");
            seen.matched += (rebased == post) as u64;
        }
        seen
    }

    #[test]
    fn rebased_replay_matches_the_per_access_path() {
        let untouched = |_: &SpecKernel<'_>, _| {};
        let all = |chunks, segs, shared| Replays {
            rebased: chunks,
            matched: chunks,
            segs,
            shared,
        };
        // The guarded_dense shape: unwritten affine reads, one scatter
        // segment (a permuted index, so the scatter really scatters).
        let s = cascade_synth::Synth::build(4_096, cascade_synth::Variant::Dense, 5);
        let mut w = s.workload;
        let Pattern::Indirect { index: ij, .. } = w.loops[0].refs[2].pattern else {
            unreachable!("Synth's third ref is the scatter")
        };
        w.index
            .set(ij, (0..4_096u32).map(|i| (i * 1_237) % 4_096).collect());
        let mut arena = s.arena;
        arena.install_indices(&w.space, &w.index);
        let prog = SpecProgram::new(w, arena).unwrap();
        assert_eq!(replay_both_ways(&prog, 500, untouched), all(9, 1, 0));

        // Two write refs on two arrays: two segments, each op in one.
        let prog = one_loop(
            &[("a", 8, 600, 64), ("b", 8, 600, 64), ("c", 8, 600, 0)],
            |id| {
                vec![
                    stream("a(i)", id[0], Mode::Read, affine(0)),
                    stream("b(i)", id[1], Mode::Write, affine(0)),
                    stream("c(i)", id[2], Mode::Modify, affine(0)),
                ]
            },
            600,
            |_, _| {},
        );
        assert_eq!(replay_both_ways(&prog, 64, untouched), all(10, 2, 0));

        // Overlapping write footprints on one array share a scratch run,
        // and a read of the written array inside it is rebased too.
        let prog = one_loop(
            &[("a", 8, 602, 0)],
            |id| {
                vec![
                    stream("a(i+1)", id[0], Mode::Read, affine(1)),
                    stream("a(i)", id[0], Mode::Write, affine(0)),
                    stream("a(i+2)", id[0], Mode::Modify, affine(2)),
                ]
            },
            600,
            |_, _| {},
        );
        assert_eq!(replay_both_ways(&prog, 64, untouched), all(10, 1, 10));

        // Read a(i), write a(i+2): the read's hull straddles the write
        // footprint's start, so every chunk takes the per-access path.
        let prog = one_loop(
            &[("a", 8, 602, 0)],
            |id| {
                vec![
                    stream("a(i)", id[0], Mode::Read, affine(0)),
                    stream("a(i+2)", id[0], Mode::Write, affine(2)),
                ]
            },
            600,
            |_, _| {},
        );
        let straddled = replay_both_ways(&prog, 64, untouched);
        assert_eq!(
            straddled,
            Replays {
                rebased: 0,
                ..all(10, 1, 0)
            }
        );
    }

    #[test]
    fn a_stray_gather_replays_alike_on_both_paths() {
        // Each 256-iteration chunk scatters over all of x[0..256) and
        // gathers from inside it, so both ops rebase into the one
        // segment. Then an index word of the gather is changed to reach
        // x[256..): the rebased path must send that access where the
        // per-access lookup does (the arena), not into the segment.
        let prog = one_loop(
            &[("x", 8, 1_024, 0), ("ij", 4, 1_024, 0)],
            |id| {
                let gather = |ibase| Pattern::Indirect {
                    index: id[1],
                    ibase,
                    istride: 1,
                };
                vec![
                    stream("x(ij(i+512))", id[0], Mode::Read, gather(512)),
                    stream("x(ij(i))", id[0], Mode::Modify, gather(0)),
                ]
            },
            512,
            |id, idx| {
                let scatter = (0..512u32).map(|i| (i * 97) % 256);
                let gather = (0..512u32).map(|i| 16 + (i * 31) % 224);
                idx.set(id[1], scatter.chain(gather).collect());
            },
        );
        let w = prog.workload();
        let ij = w.space.iter().find(|(_, d)| d.name == "ij").unwrap().1.base;
        let clean = replay_both_ways(&prog, 256, |_, _| {});
        assert_eq!((clean.rebased, clean.matched), (2, 2));
        let stray = |k: &SpecKernel<'_>, r: Range<u64>| {
            // Byte 1 of the gather's index word for the chunk's tenth
            // iteration: +256 keeps it inside x, outside the segment.
            let at = ij + 4 * (512 + r.start + 10) + 1;
            // SAFETY: single-threaded; the byte is outside every write
            // footprint, and nothing runs concurrently.
            assert!(unsafe { k.corrupt_byte(r, at, 0x01, false) });
        };
        let seen = replay_both_ways(&prog, 256, stray);
        assert_eq!((seen.rebased, seen.matched), (2, 0), "{seen:?}");
    }

    #[test]
    fn the_footprint_memo_answers_as_write_set_does() {
        let (w, arena) = scatter_workload(2_048);
        let prog = SpecProgram::new(w, arena).unwrap();
        let k = prog.kernel(0);
        let fresh = |r: Range<u64>| cascade_analyze::write_set(prog.workload(), k.spec(), r);
        for r in [0..512, 0..512, 512..1024, 0..512, 100..101, 100..101, 7..7] {
            assert_eq!(k.write_footprints(r.clone()), fresh(r.clone()), "{r:?}");
        }
        // Every kernel of the loop shares the memo. One held elsewhere is
        // passed by, with the same answer.
        let held = prog.kernel(0).memo.footprints.lock().unwrap();
        assert_eq!(k.write_footprints(0..64), fresh(0..64));
        drop(held);
        assert_eq!(k.write_footprints(0..64), fresh(0..64));
    }
}
