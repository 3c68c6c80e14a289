//! The kernel contract between a real loop body and the cascade runner.

use std::ops::Range;

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
    /// Must read only data that no iteration of the loop writes.
    fn pack_iter(&self, i: u64, buf: &mut Vec<u8>) -> bool {
        let _ = (i, buf);
        false
    }

    /// Append the packed form of every iteration of `range`, in order:
    /// what the runner's helper calls, once per poll batch. Byte for byte
    /// the concatenation of [`RealKernel::pack_iter`] over `range`, which
    /// is what the default does. Returns `false` when the kernel cannot
    /// pack; `buf` then holds no usable prefix and the caller discards it.
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
    /// ([`crate::sched::try_run_planned`]) only journals DOALL and
    /// DOACROSS stages under this promise: concurrent workers capture
    /// and write disjoint ranges, and a non-exact footprint (e.g. an
    /// interval over a stride-2 write whose gap bytes another chunk
    /// owns) would make the capture itself a data race. The
    /// conservative default (`false`) disables stage journaling; the
    /// stage then falls back to the fail-stop gate on faults and to
    /// *completing* on cancellation.
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

    /// A digest over the bytes *outside* the loop's whole write footprint
    /// — the arena scrubber of the silent-data-corruption defense. Any
    /// drift between two scrubs brackets an out-of-footprint corruption:
    /// no iteration of the loop may write there. `None` (the default)
    /// when the kernel cannot bound its footprint; the scrubber is then
    /// disabled.
    ///
    /// Only two scrubs of one run are ever compared, so the digest is the
    /// in-memory [`cascade_core::fnv64_words`]. [`crate::SpecKernel`]
    /// chains it over the unwritten gaps in ascending address order,
    /// hashing each gap in place: no copy of the arena, no allocation
    /// beyond the gap list, and any single-byte drift changes the digest.
    ///
    /// # Safety
    ///
    /// The caller must guarantee quiescence: no `execute` /
    /// `execute_packed` call may be concurrent with the scrub (the
    /// runner scrubs from the supervisor, outside worker lifetimes).
    unsafe fn scrub_digest(&self) -> Option<u64> {
        None
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
