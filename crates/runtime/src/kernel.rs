//! The kernel contract between a real loop body and the cascade runner.

use std::ops::Range;

use cascade_core::{fnv64_words, FNV64_BASIS};

/// A loop body executable under cascaded execution on real threads.
///
/// Implementations typically keep their mutable state behind an
/// `UnsafeCell` (see [`crate::interp::SpecProgram`]): the runner guarantees
/// that `execute`/`execute_packed` calls are serialized by the token
/// protocol, with Release/Acquire edges between consecutive chunks, so the
/// implementation may soundly mutate shared state during those calls.
pub trait RealKernel: Sync {
    /// Total iteration count of the loop.
    fn iters(&self) -> u64;

    /// Execute iterations `range` of the loop body.
    ///
    /// # Safety
    ///
    /// The caller must guarantee exclusivity: no other `execute` /
    /// `execute_packed` call may be concurrent with this one, and all
    /// previous chunks' effects must be visible (happens-before). The
    /// cascade runner establishes both via [`crate::token::Token`].
    unsafe fn execute(&self, range: Range<u64>);

    /// Prefetch the operands of iteration `i` into this thread's caches.
    /// Called concurrently with other threads' execution phases; must not
    /// perform demand reads of data any loop iteration writes.
    fn prefetch_iter(&self, i: u64) {
        let _ = i;
    }

    /// Prefetch the operands of every iteration of `range`: what the
    /// runner's helper calls, once per poll batch. The default loops over
    /// [`RealKernel::prefetch_iter`]; override it when a batch can be
    /// hinted cheaper than one iteration at a time.
    fn prefetch_range(&self, range: Range<u64>) {
        range.for_each(|i| self.prefetch_iter(i))
    }

    /// Bytes of operand data one [`RealKernel::prefetch_iter`] call
    /// covers — the unit behind the prefetch-byte accounting in the
    /// observability report (`RunStats::metrics`). The default (0) means
    /// the kernel does not report prefetch volume; kernels overriding
    /// `prefetch_iter` should return the per-iteration footprint their
    /// hints actually touch.
    fn prefetch_bytes_per_iter(&self) -> u64 {
        0
    }

    /// Append the packed (sequential-buffer) form of iteration `i`'s
    /// read-only operands to `buf`. Returns `false` when this kernel does
    /// not support restructuring (the runner then falls back to prefetch).
    /// Must read only data that no iteration of the loop writes. It may
    /// *hint* data the loop writes (warm a store target in place, as
    /// [`RealKernel::prefetch_iter`] does) but never demand-read it.
    fn pack_iter(&self, i: u64, buf: &mut Vec<u8>) -> bool {
        let _ = (i, buf);
        false
    }

    /// Append the packed form of every iteration of `range`, in order:
    /// what the runner's helper calls, once per poll batch. Byte for byte
    /// the concatenation of [`RealKernel::pack_iter`] over `range`, which
    /// is what the default does. Returns `false` when the kernel cannot
    /// pack; `buf` then holds no usable prefix and the caller discards it.
    /// The read rule of `pack_iter` holds: data the loop writes may be
    /// hinted, never demand-read.
    fn pack_range(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        range.into_iter().all(|i| self.pack_iter(i, buf))
    }

    /// Execute iterations `range` consuming `buf`, which holds exactly the
    /// bytes appended by `pack_iter` for each iteration of `range` in
    /// order. Results must be bitwise identical to [`RealKernel::execute`]
    /// over the same range.
    ///
    /// # Safety
    ///
    /// Same exclusivity contract as [`RealKernel::execute`].
    unsafe fn execute_packed(&self, range: Range<u64>, buf: &[u8]) {
        let _ = buf;
        // SAFETY: forwarded under the caller's own exclusivity guarantee.
        unsafe { self.execute(range) }
    }

    /// The helper-horizon constraint of this kernel: `Some(lag)` means a
    /// helper (prefetch or pack) may only touch iteration `i` while
    /// `i < committed + lag`, where `committed` is the first iteration of
    /// the chunk the token currently licenses (everything below it is
    /// executed and visible through the token's Release/Acquire pair).
    /// `None` means helpers are unrestricted.
    ///
    /// This is how loops with loop-carried reads (lag ≥ 1 flow
    /// dependences, e.g. a first-order recurrence) run safely on real
    /// threads: the helper never reads a value the concurrent execution
    /// phase could still produce. Verdicts come from the `cascade-analyze`
    /// static analysis (see `docs/ANALYSIS.md`).
    fn helper_horizon(&self) -> Option<u64> {
        None
    }

    /// Whether any panic raised by `execute` / `execute_packed` is
    /// guaranteed to happen *before* the call mutates shared state
    /// (fail-stop panics). The runner's salvage path re-executes an
    /// interrupted chunk from its start, which is only bitwise-sound when
    /// the interrupted attempt left no partial writes behind — either via
    /// this promise, or because the runner rolled the chunk's undo
    /// journal back (see [`RealKernel::journal_capture`]). Kernels that
    /// can make neither guarantee keep the conservative default and
    /// recovery is refused after a mid-body panic (see
    /// `docs/ROBUSTNESS.md`).
    fn panics_before_mutation(&self) -> bool {
        false
    }

    /// Capture the undo journal of chunk `range`: replace `buf`'s
    /// contents with the *current* bytes of every location
    /// `execute(range)` / `execute_packed(range, ..)` may write — the
    /// chunk's write-set, typically bounded by the `cascade-analyze`
    /// footprints (`cascade_analyze::write_set`). Returns `false` when
    /// this kernel cannot bound its write-set (the chunk is
    /// unjournalable and the runner falls back to the fail-stop gate).
    /// The call must only read; the chunk body has not run yet.
    ///
    /// # Safety
    ///
    /// Same exclusivity contract as [`RealKernel::execute`]: the caller
    /// holds the chunk's claim, so no concurrent writer exists while the
    /// snapshot is taken.
    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        let _ = (range, buf);
        false
    }

    /// Whether this kernel's undo-journal footprints are *range-exact*:
    /// `journal_capture(range, ..)` reads exactly the bytes
    /// `execute(range)` writes — no padding bytes, no gap bytes between
    /// strided elements — so disjoint iteration ranges always have
    /// disjoint journal footprints. The plan-driven scheduler
    /// ([`crate::sched::try_run_planned`]) only lets DOALL and DOACROSS
    /// chunks capture under this promise: concurrent workers capture
    /// and write disjoint ranges, and a non-exact footprint (e.g. an
    /// interval over a stride-2 write whose gap bytes another chunk
    /// owns) would make the capture itself a data race. The promise
    /// gates concurrent capture only. With the conservative default
    /// (`false`) a split chunk that panics falls back to the fail-stop
    /// gate; a cancel treats every split stage alike, keeping its
    /// committed prefix.
    fn journal_range_exact(&self) -> bool {
        false
    }

    /// Restore the bytes captured by a prior successful
    /// `journal_capture(range, buf)`, returning the chunk's write-set to
    /// its exact pre-chunk state bitwise. The runner calls this after an
    /// execution-phase panic, while still holding the chunk's claim, so
    /// the rollback happens-before any re-execution claim.
    ///
    /// # Safety
    ///
    /// Same exclusivity contract as [`RealKernel::execute`]; `buf` must
    /// be the unmodified output of a `journal_capture` call over the
    /// same `range` on this kernel, taken before the interrupted
    /// execution attempt.
    unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
        let _ = (range, buf);
        unreachable!("journal_rollback without a successful journal_capture");
    }

    /// Visit the *live* bytes of chunk `range`'s write-set where they lie:
    /// `visit` sees one or more slices, in journal order, whose
    /// concatenation is exactly what `journal_capture(range, ..)` would
    /// copy out. Returns `false`, visiting nothing, when the write-set
    /// cannot be bounded. This is how the runner's checksummed handoff
    /// digests a committed chunk and how its verifier compares a replay
    /// against it, with no copy of the footprint. The slices are the
    /// digest's boundaries ([`cascade_core::fnv64_words`] is chained over
    /// them), so a kernel must cut a given range the same way every time.
    ///
    /// The default captures the journal into a scratch buffer and visits
    /// it as one slice. [`crate::SpecKernel`] visits one slice per write
    /// footprint, in place.
    ///
    /// # Safety
    ///
    /// Same contract as [`RealKernel::journal_capture`]: the caller holds
    /// the chunk's claim (or the run's quiescence), so no writer overlaps
    /// the footprint while `visit` reads it.
    unsafe fn visit_footprint(&self, range: Range<u64>, visit: &mut dyn FnMut(&[u8])) -> bool {
        let mut buf = Vec::new();
        // SAFETY: forwarded under the caller's guarantee.
        let bounded = unsafe { self.journal_capture(range, &mut buf) };
        if bounded {
            visit(&buf);
        }
        bounded
    }

    /// Re-execute the *committed* chunk `range` against a journaled
    /// private view and return the resulting write-set bytes in
    /// journal layout (the byte order of [`RealKernel::journal_capture`]).
    /// `pre_image` is the undo journal captured over the same `range`
    /// before the chunk ran: the replay seeds a private overlay of the
    /// chunk's write footprint from it, executes every iteration of
    /// `range` routing all footprint loads/stores through the overlay
    /// (loads outside the footprint read shared memory, which the chunk
    /// never writes), and returns the overlay. Shared memory is **never
    /// written** — this is the verification read path of the
    /// silent-data-corruption defense (`docs/ROBUSTNESS.md`).
    ///
    /// The replay sits on the critical path of every chunk that depends
    /// on this one ([`RealKernel::independent`]), so it should run at
    /// execution speed. [`crate::SpecKernel`]
    /// fixes, once per chunk, where each operand stream goes: the
    /// arena, or one overlay segment it is rebased into. The loop body
    /// then runs as in `execute`, with no lookup per access, and its
    /// overlay, held in journal layout, is the result: no readout copy.
    ///
    /// Returns `None` when this kernel cannot replay (the conservative
    /// default; verification then degrades to digest comparison).
    ///
    /// # Safety
    ///
    /// `range` must be committed (no concurrent `execute` may overlap its
    /// write footprint) and `pre_image` must be the unmodified output of
    /// a `journal_capture(range, ..)` taken before the chunk executed.
    unsafe fn replay_footprint(&self, range: Range<u64>, pre_image: &[u8]) -> Option<Vec<u8>> {
        let _ = (range, pre_image);
        None
    }

    /// Chunk `range`'s write footprint as byte spans of this kernel's
    /// memory, in journal order: the pieces [`RealKernel::visit_footprint`]
    /// visits. The runner takes them once per verified chunk, for
    /// [`RealKernel::independent`]. `None` (the default) when the kernel
    /// cannot name them: the chunk's audit is then never deferred.
    fn write_spans(&self, range: Range<u64>) -> Option<Vec<Range<u64>>> {
        let _ = range;
        None
    }

    /// Whether a later chunk, writing `next`, may execute while the audit
    /// of a committed chunk that wrote `committed` is still pending (both
    /// from [`RealKernel::write_spans`]): neither chunk reads what the
    /// other writes, and neither writes what the other writes, so the
    /// audit, and a repair that installs verified bytes over `committed`,
    /// commute with the later chunk's body. The default, `false`, keeps
    /// every audit before the next chunk executes.
    fn independent(&self, committed: &[Range<u64>], next: &[Range<u64>]) -> bool {
        let _ = (committed, next);
        false
    }

    /// Corrupt one byte of shared memory by XOR — the fault-injection hook
    /// behind `FaultKind::SilentBitFlip`, never called by the runtime
    /// itself. With `in_footprint`, `offset` indexes (mod the footprint
    /// size) into the journal-layout write footprint of `range`, so the
    /// flip lands on bytes the chunk legitimately wrote; otherwise the
    /// flip targets a byte *outside* the loop's whole write footprint
    /// (starting the search at `offset` mod the arena size). Returns
    /// `false` when this kernel cannot target the requested scope (no
    /// resolvable footprint, or no byte outside it).
    ///
    /// # Safety
    ///
    /// Same exclusivity contract as [`RealKernel::execute`]: the caller
    /// holds the chunk's claim, so no concurrent reader can observe the
    /// torn write.
    unsafe fn corrupt_byte(
        &self,
        range: Range<u64>,
        offset: u64,
        xor: u8,
        in_footprint: bool,
    ) -> bool {
        let _ = (range, offset, xor, in_footprint);
        false
    }

    /// How many blocks the arena scrub cuts this loop's *unwritten gaps*
    /// into: the bytes outside the loop's whole write footprint, which no
    /// iteration of the loop may write, so any drift between two scrubs
    /// brackets an out-of-footprint corruption. Blocks are numbered in
    /// ascending address order, and each is hashed on its own
    /// ([`RealKernel::scrub_block`]), so the runner can share one scrub
    /// among its workers. `None` (the default) when the kernel cannot
    /// bound its footprint; the scrubber is then disabled.
    fn scrub_blocks(&self) -> Option<usize> {
        None
    }

    /// Block `b`'s bytes (the span from its first gap byte to its last)
    /// and its digest, for `b < scrub_blocks()`. Only two scrubs of one
    /// run are ever compared, so the digest is the in-memory
    /// [`cascade_core::fnv64_words`]. [`crate::SpecKernel`] cuts its gaps
    /// at every multiple of [`crate::interp::SCRUB_BLOCK`] of arena
    /// offset and chains the digest over the block's pieces, hashing each
    /// in place: no copy of the arena, and any single-byte drift inside
    /// the block changes its digest.
    ///
    /// # Safety
    ///
    /// The caller must guarantee quiescence of the gaps: nothing may
    /// write outside this loop's write footprint during the call, so no
    /// `execute` / `execute_packed` call of any loop may be concurrent
    /// with it. Concurrent `scrub_block` calls are fine: they only read.
    /// The runner hashes blocks from its workers between a loop's
    /// barriers, each worker its own share.
    unsafe fn scrub_block(&self, b: usize) -> (Range<u64>, u64) {
        let _ = b;
        unreachable!("scrub_block without scrub_blocks")
    }

    /// A digest of the whole arena scrub: the in-order fold of every
    /// block's digest ([`RealKernel::scrub_block`]) on the calling
    /// thread, so a drift in any one block changes it. `None` when
    /// [`RealKernel::scrub_blocks`] is.
    ///
    /// # Safety
    ///
    /// As [`RealKernel::scrub_block`].
    unsafe fn scrub_digest(&self) -> Option<u64> {
        let blocks = self.scrub_blocks()?;
        Some((0..blocks).fold(FNV64_BASIS, |h, b| {
            // SAFETY: forwarded under the caller's quiescence guarantee.
            let (_, d) = unsafe { self.scrub_block(b) };
            fnv64_words(h, &d.to_le_bytes())
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::UnsafeCell;

    /// A minimal kernel: out[i] = a[i] + b[i].
    struct AddKernel {
        a: Vec<f64>,
        b: Vec<f64>,
        out: UnsafeCell<Vec<f64>>,
    }
    // SAFETY: `out` is only mutated through `execute`, whose contract
    // requires external serialization.
    unsafe impl Sync for AddKernel {}

    impl RealKernel for AddKernel {
        fn iters(&self) -> u64 {
            self.a.len() as u64
        }
        unsafe fn execute(&self, range: Range<u64>) {
            // SAFETY: contract gives exclusive access.
            let out = unsafe { &mut *self.out.get() };
            for i in range {
                out[i as usize] = self.a[i as usize] + self.b[i as usize];
            }
        }
    }

    /// A kernel that implements only the per-iteration helpers: it packs
    /// the byte `i` for `i < cap` and records its prefetch calls.
    struct IterOnly {
        cap: u64,
        prefetched: std::sync::Mutex<Vec<u64>>,
    }

    impl RealKernel for IterOnly {
        fn iters(&self) -> u64 {
            8
        }
        unsafe fn execute(&self, _: Range<u64>) {}
        fn prefetch_iter(&self, i: u64) {
            self.prefetched.lock().unwrap().push(i);
        }
        fn pack_iter(&self, i: u64, buf: &mut Vec<u8>) -> bool {
            if i < self.cap {
                buf.push(i as u8);
            }
            i < self.cap
        }
    }

    #[test]
    fn default_range_helpers_loop_over_the_per_iteration_ones() {
        let kernel = |cap| IterOnly {
            cap,
            prefetched: Default::default(),
        };
        let k = kernel(8);
        let mut buf = Vec::new();
        assert!(k.pack_range(2..7, &mut buf));
        assert_eq!(buf, [2, 3, 4, 5, 6], "pack_iter per iteration, in order");
        k.prefetch_range(1..6);
        assert_eq!(k.prefetched.into_inner().unwrap(), [1, 2, 3, 4, 5]);
        // A kernel that stops packing mid-range reports it; the caller
        // discards whatever was appended.
        assert!(!kernel(5).pack_range(2..7, &mut Vec::new()));
        assert!(!kernel(0).pack_range(0..1, &mut Vec::new()));
    }

    #[test]
    fn default_packed_execution_falls_back_to_execute() {
        let k = AddKernel {
            a: vec![1.0; 8],
            b: vec![2.0; 8],
            out: UnsafeCell::new(vec![0.0; 8]),
        };
        assert!(!k.pack_iter(0, &mut Vec::new()));
        // SAFETY: single-threaded test, trivially exclusive.
        unsafe { k.execute_packed(0..8, &[]) };
        let out = unsafe { &*k.out.get() };
        assert!(out.iter().all(|&v| v == 3.0));
    }
}
