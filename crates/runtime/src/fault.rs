//! Deterministic fault injection for exercising the runtime's failure
//! paths: wrap any [`RealKernel`] in a [`FaultyKernel`] and a [`FaultPlan`]
//! chooses exactly which chunks panic, stall, or slow down.
//!
//! Design points that keep injected faults compatible with salvage (see
//! `docs/ROBUSTNESS.md`):
//!
//! * **Most faults fire before the chunk body.** An injected panic
//!   interrupts the chunk *before* the inner kernel writes anything, so
//!   re-executing the chunk from its start (the salvage path) is
//!   bitwise-correct, and [`FaultyKernel`] reports
//!   [`RealKernel::panics_before_mutation`] — wrap only kernels that do
//!   not panic on their own, or that promise fail-stop themselves. The
//!   exception is [`FaultKind::PanicMidMutation`], which deliberately
//!   executes a prefix of the chunk before panicking to leave torn
//!   partial writes behind: a plan containing one makes the wrapper
//!   truthfully *deny* fail-stop, so recovery is only possible through
//!   the journal-rollback transaction layer (or refused, for
//!   unjournalable inner kernels).
//! * **Faults fire once.** Each planned chunk trips at most one time, so
//!   the sequential salvage (or a retry) does not re-trigger the fault it
//!   is recovering from.
//! * **Stalls are finite.** A stall sleeps for a fixed duration and then
//!   runs the body, so every worker eventually returns and the supervisor
//!   can always join the pool — the watchdog may well declare the worker
//!   dead in the meantime (the `LateCompletion` path), but nothing hangs.

use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::Mutex;
use std::time::Duration;

use crate::kernel::RealKernel;

/// What an injected fault does when its chunk starts executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic before the chunk body runs (a crashed worker).
    Panic,
    /// Execute the first `after_iters` iterations of the chunk, then
    /// panic — a crash *mid-mutation* that leaves torn partial writes in
    /// shared memory. Recovering from this requires the chunk
    /// transaction layer (undo-journal rollback); a fail-stop promise
    /// cannot cover it, so a plan containing one revokes
    /// [`RealKernel::panics_before_mutation`].
    PanicMidMutation {
        /// Iterations of the chunk to execute before panicking (clamped
        /// to the chunk length; 0 degenerates to a fail-stop panic but
        /// is still reported as mid-mutation).
        after_iters: u64,
    },
    /// Sleep for the duration, then run the body (a worker stuck long
    /// enough for the watchdog to declare it dead, yet finite so the pool
    /// always drains).
    Stall(Duration),
    /// Sleep briefly, then run the body (a slow worker that should *not*
    /// trip a well-tuned watchdog).
    Slowdown(Duration),
    /// Execute the chunk **and commit it normally**, but XOR one byte of
    /// shared memory partway through — silent data corruption. Nothing
    /// panics, nothing stalls: without the verification layer
    /// (`VerifyPolicy`, `docs/ROBUSTNESS.md` "Silent data corruption")
    /// the wrong bytes flow straight into the committed prefix. The flip
    /// lands via [`RealKernel::corrupt_byte`] either *inside* the chunk's
    /// analyzer-computed write footprint (`in_footprint`, caught by
    /// replay verification) or *outside* every write footprint of the
    /// loop (caught only by the arena scrubber).
    SilentBitFlip {
        /// Iterations of the chunk to execute before flipping (clamped to
        /// the chunk length; the remainder executes after the flip, so a
        /// small value lets later iterations legitimately overwrite the
        /// flip — use at least the chunk length to guarantee the
        /// corruption survives to commit).
        after_iters: u64,
        /// Which byte to flip: an index into the chunk's journal-layout
        /// write footprint (`in_footprint`) or a search start in the
        /// arena (outside), both taken modulo the respective size.
        offset: u64,
        /// XOR mask applied to the byte (0 degenerates to a no-op flip).
        xor: u8,
        /// Flip inside the chunk's write footprint (`true`) or outside
        /// every write footprint of the loop (`false`).
        in_footprint: bool,
    },
}

/// Which chunks of a run misbehave, and how. The plan is keyed by chunk
/// index; under the runner's round-robin ownership the executing thread is
/// `chunk % nthreads`, so [`FaultPlan::chunk_owned_by`] converts a
/// (thread, turn) target into the chunk to plan.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    iters_per_chunk: u64,
    faults: HashMap<u64, FaultKind>,
}

impl FaultPlan {
    /// An empty plan. `iters_per_chunk` must match the
    /// [`crate::runner::RunnerConfig::iters_per_chunk`] the run will use —
    /// it is how the kernel maps an iteration range back to a chunk index.
    pub fn new(iters_per_chunk: u64) -> Self {
        assert!(iters_per_chunk >= 1, "chunks must be non-empty");
        FaultPlan {
            iters_per_chunk,
            faults: HashMap::new(),
        }
    }

    /// Plan `kind` for `chunk` (builder style).
    pub fn inject(mut self, chunk: u64, kind: FaultKind) -> Self {
        self.faults.insert(chunk, kind);
        self
    }

    /// The chunk that worker `thread` (of `nthreads`, round-robin
    /// ownership) executes on its `turn`-th turn — plan a fault there to
    /// target a specific (thread, chunk) point.
    pub fn chunk_owned_by(thread: u64, turn: u64, nthreads: u64) -> u64 {
        thread + turn * nthreads
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Does any planned fault interrupt a chunk mid-mutation? If so, a
    /// [`FaultyKernel`] running this plan cannot promise fail-stop
    /// panics.
    pub fn has_mid_mutation(&self) -> bool {
        self.faults
            .values()
            .any(|k| matches!(k, FaultKind::PanicMidMutation { .. }))
    }

    /// The chunk an execution range starting at `iter` belongs to.
    fn chunk_of(&self, iter: u64) -> u64 {
        iter / self.iters_per_chunk
    }
}

/// A [`RealKernel`] wrapper that injects the faults of a [`FaultPlan`] at
/// the start of the planned chunks' execution phases.
#[derive(Debug)]
pub struct FaultyKernel<K> {
    inner: K,
    plan: FaultPlan,
    fired: Mutex<HashSet<u64>>,
}

impl<K> FaultyKernel<K> {
    /// Wrap `inner` so the chunks named in `plan` misbehave.
    pub fn new(inner: K, plan: FaultPlan) -> Self {
        FaultyKernel {
            inner,
            plan,
            fired: Mutex::new(HashSet::new()),
        }
    }

    /// The chunks whose faults actually fired, sorted.
    pub fn fired(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.fired.lock().unwrap().iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Unwrap the inner kernel (e.g. to inspect its data after a run).
    pub fn into_inner(self) -> K {
        self.inner
    }

    /// Fire the planned fault for the chunk containing `start_iter`, at
    /// most once per chunk. Returns how much of the chunk body the
    /// execute path may still run: all of it, or only a prefix (the
    /// mid-mutation fault, which executes that prefix and then panics).
    fn trip(&self, start_iter: u64) -> Trip {
        let chunk = self.plan.chunk_of(start_iter);
        let Some(kind) = self.plan.faults.get(&chunk) else {
            return Trip::Clean;
        };
        {
            let mut fired = self.fired.lock().unwrap();
            if !fired.insert(chunk) {
                return Trip::Clean; // fire once: salvage must not re-trip it
            }
        }
        match *kind {
            FaultKind::Panic => panic!("injected fault: panic at chunk {chunk}"),
            FaultKind::PanicMidMutation { after_iters } => Trip::Prefix(after_iters),
            FaultKind::Stall(d) | FaultKind::Slowdown(d) => {
                std::thread::sleep(d);
                Trip::Clean
            }
            FaultKind::SilentBitFlip {
                after_iters,
                offset,
                xor,
                in_footprint,
            } => Trip::Flip {
                after_iters,
                offset,
                xor,
                in_footprint,
            },
        }
    }
}

/// What an execute path does after [`FaultyKernel::trip`].
enum Trip {
    /// No interruption (no fault planned, already fired, or a sleep that
    /// has finished): run the whole body.
    Clean,
    /// Run only the first `n` iterations of the range, then panic.
    Prefix(u64),
    /// Run the first `after_iters` iterations, XOR a byte via
    /// [`RealKernel::corrupt_byte`], then run the rest — and return
    /// normally, as if nothing happened.
    Flip {
        after_iters: u64,
        offset: u64,
        xor: u8,
        in_footprint: bool,
    },
}

impl<K: RealKernel> RealKernel for FaultyKernel<K> {
    fn iters(&self) -> u64 {
        self.inner.iters()
    }

    unsafe fn execute(&self, range: Range<u64>) {
        match self.trip(range.start) {
            // SAFETY: forwarded under the caller's exclusivity guarantee.
            Trip::Clean => unsafe { self.inner.execute(range) },
            Trip::Prefix(n) => {
                let split = (range.start + n).min(range.end);
                // SAFETY: forwarded prefix under the same guarantee.
                unsafe { self.inner.execute(range.start..split) };
                panic!("injected fault: panic mid-mutation at iteration {split}");
            }
            Trip::Flip {
                after_iters,
                offset,
                xor,
                in_footprint,
            } => {
                let split = (range.start.saturating_add(after_iters)).min(range.end);
                // SAFETY: forwarded under the caller's exclusivity
                // guarantee; the flip happens while the claim is held, so
                // no concurrent reader observes the torn byte.
                unsafe {
                    self.inner.execute(range.start..split);
                    self.inner
                        .corrupt_byte(range.clone(), offset, xor, in_footprint);
                    self.inner.execute(split..range.end);
                }
            }
        }
    }

    fn prefetch_iter(&self, i: u64) {
        self.inner.prefetch_iter(i)
    }

    fn prefetch_range(&self, range: Range<u64>) {
        self.inner.prefetch_range(range)
    }

    fn prefetch_bytes_per_iter(&self) -> u64 {
        self.inner.prefetch_bytes_per_iter()
    }

    fn pack_iter(&self, i: u64, buf: &mut Vec<u8>) -> bool {
        self.inner.pack_iter(i, buf)
    }

    fn pack_range(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        self.inner.pack_range(range, buf)
    }

    unsafe fn execute_packed(&self, range: Range<u64>, buf: &[u8]) {
        match self.trip(range.start) {
            // SAFETY: forwarded under the caller's exclusivity guarantee.
            Trip::Clean => unsafe { self.inner.execute_packed(range, buf) },
            Trip::Prefix(n) => {
                let split = (range.start + n).min(range.end);
                // The prefix runs *unpacked*, which is bitwise-identical:
                // under the claim, every value the pack captured is still
                // exactly what memory holds (packs read only data that
                // committed chunks wrote, or that no iteration writes).
                // SAFETY: forwarded prefix under the same guarantee.
                unsafe { self.inner.execute(range.start..split) };
                panic!("injected fault: panic mid-mutation at iteration {split}");
            }
            Trip::Flip {
                after_iters,
                offset,
                xor,
                in_footprint,
            } => {
                let split = (range.start.saturating_add(after_iters)).min(range.end);
                // Both halves run *unpacked* (bitwise-identical, see the
                // mid-mutation arm above) so the flip can land between
                // iterations exactly as in the plain execute path.
                // SAFETY: forwarded under the caller's exclusivity
                // guarantee.
                unsafe {
                    self.inner.execute(range.start..split);
                    self.inner
                        .corrupt_byte(range.clone(), offset, xor, in_footprint);
                    self.inner.execute(split..range.end);
                }
            }
        }
    }

    fn helper_horizon(&self) -> Option<u64> {
        self.inner.helper_horizon()
    }

    /// Injected panics fire strictly before the inner body (see module
    /// docs) — *unless* the plan contains a mid-mutation fault, which
    /// exists precisely to break that promise. Either way the promise is
    /// void if the *inner* kernel panics mid-body on its own.
    fn panics_before_mutation(&self) -> bool {
        !self.plan.has_mid_mutation()
    }

    fn journal_range_exact(&self) -> bool {
        // Fault injection never widens the write-set, so the inner
        // kernel's exactness promise carries over.
        self.inner.journal_range_exact()
    }

    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        // Forwarded (the trait default would wrongly deny journaling):
        // the write-set of the wrapper is the write-set of the inner
        // kernel — an injected fault only truncates execution.
        // SAFETY: forwarded under the caller's exclusivity guarantee.
        unsafe { self.inner.journal_capture(range, buf) }
    }

    unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
        // SAFETY: forwarded under the caller's exclusivity guarantee.
        unsafe { self.inner.journal_rollback(range, buf) }
    }

    unsafe fn visit_footprint(&self, range: Range<u64>, visit: &mut dyn FnMut(&[u8])) -> bool {
        // Forwarded for the same reason as `journal_capture`, and so the
        // inner kernel's slices (the digest's boundaries) carry over.
        // SAFETY: forwarded under the caller's exclusivity guarantee.
        unsafe { self.inner.visit_footprint(range, visit) }
    }

    unsafe fn replay_footprint(&self, range: Range<u64>, pre_image: &[u8]) -> Option<Vec<u8>> {
        // Forwarded to the *inner* kernel, bypassing `trip` entirely:
        // replays are the verification read path and must be clean even
        // when the original execution of the range flipped a byte (the
        // fire-once set already contains the chunk anyway).
        // SAFETY: forwarded under the caller's committed-range guarantee.
        unsafe { self.inner.replay_footprint(range, pre_image) }
    }

    fn write_spans(&self, range: Range<u64>) -> Option<Vec<Range<u64>>> {
        self.inner.write_spans(range)
    }

    fn independent(&self, committed: &[Range<u64>], next: &[Range<u64>]) -> bool {
        // Injection changes no read or write set.
        self.inner.independent(committed, next)
    }

    unsafe fn corrupt_byte(
        &self,
        range: Range<u64>,
        offset: u64,
        xor: u8,
        in_footprint: bool,
    ) -> bool {
        // SAFETY: forwarded under the caller's exclusivity guarantee.
        unsafe { self.inner.corrupt_byte(range, offset, xor, in_footprint) }
    }

    fn scrub_blocks(&self) -> Option<usize> {
        self.inner.scrub_blocks()
    }

    unsafe fn scrub_block(&self, b: usize) -> (Range<u64>, u64) {
        // SAFETY: forwarded under the caller's quiescence guarantee.
        unsafe { self.inner.scrub_block(b) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::UnsafeCell;
    use std::time::Instant;

    struct Counter(UnsafeCell<Vec<u64>>);
    // SAFETY: mutation only via `execute` under the trait's exclusivity
    // contract (single-threaded in these tests).
    unsafe impl Sync for Counter {}
    impl RealKernel for Counter {
        fn iters(&self) -> u64 {
            // SAFETY: length read; execute never resizes.
            unsafe { (*self.0.get()).len() as u64 }
        }
        unsafe fn execute(&self, range: Range<u64>) {
            // SAFETY: exclusive per contract.
            let v = unsafe { &mut *self.0.get() };
            for i in range {
                v[i as usize] += 1;
            }
        }
        unsafe fn corrupt_byte(
            &self,
            range: Range<u64>,
            offset: u64,
            xor: u8,
            in_footprint: bool,
        ) -> bool {
            if !in_footprint {
                return false; // this toy kernel only targets its own writes
            }
            // SAFETY: exclusive per contract.
            let v = unsafe { &mut *self.0.get() };
            let i = range.start + offset % (range.end - range.start);
            v[i as usize] ^= xor as u64;
            true
        }
    }

    #[test]
    fn faults_fire_once_per_chunk() {
        let plan = FaultPlan::new(10).inject(1, FaultKind::Panic);
        let k = FaultyKernel::new(Counter(UnsafeCell::new(vec![0; 40])), plan);
        // First touch of chunk 1 panics...
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: single-threaded.
            unsafe { k.execute(10..20) }
        }));
        assert!(r.is_err());
        assert_eq!(k.fired(), vec![1]);
        // ...and the retry (the salvage path) runs clean, exactly once.
        // SAFETY: single-threaded.
        unsafe { k.execute(10..20) };
        let counts = k.into_inner().0.into_inner();
        assert!(counts[10..20].iter().all(|&c| c == 1), "{counts:?}");
        assert!(counts[..10].iter().all(|&c| c == 0));
    }

    #[test]
    fn unplanned_chunks_run_untouched() {
        let plan = FaultPlan::new(10).inject(3, FaultKind::Panic);
        let k = FaultyKernel::new(Counter(UnsafeCell::new(vec![0; 40])), plan);
        // SAFETY: single-threaded.
        unsafe { k.execute(0..10) };
        assert!(k.fired().is_empty());
        assert_eq!(k.iters(), 40);
    }

    #[test]
    fn stall_sleeps_then_executes() {
        let plan = FaultPlan::new(10).inject(0, FaultKind::Stall(Duration::from_millis(30)));
        let k = FaultyKernel::new(Counter(UnsafeCell::new(vec![0; 10])), plan);
        let t0 = Instant::now();
        // SAFETY: single-threaded.
        unsafe { k.execute(0..10) };
        assert!(t0.elapsed() >= Duration::from_millis(30));
        assert!(k.into_inner().0.into_inner().iter().all(|&c| c == 1));
    }

    #[test]
    fn mid_mutation_fault_executes_a_prefix_then_panics() {
        let plan = FaultPlan::new(10).inject(1, FaultKind::PanicMidMutation { after_iters: 4 });
        assert!(plan.has_mid_mutation());
        let k = FaultyKernel::new(Counter(UnsafeCell::new(vec![0; 40])), plan);
        assert!(
            !k.panics_before_mutation(),
            "a mid-mutation plan must revoke the fail-stop promise"
        );
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: single-threaded.
            unsafe { k.execute(10..20) }
        }));
        assert!(r.is_err());
        assert_eq!(k.fired(), vec![1]);
        {
            // SAFETY: single-threaded, no execute outstanding.
            let counts = unsafe { &*k.inner.0.get() };
            assert!(
                counts[10..14].iter().all(|&c| c == 1),
                "the prefix mutated: {counts:?}"
            );
            assert!(
                counts[14..20].iter().all(|&c| c == 0),
                "the suffix did not: {counts:?}"
            );
        }
        // The fault fired; re-execution (retry / salvage) runs clean.
        // SAFETY: single-threaded.
        unsafe { k.execute(10..20) };
        let counts = k.into_inner().0.into_inner();
        assert!(
            counts[10..14].iter().all(|&c| c == 2),
            "torn prefix re-ran: {counts:?}"
        );
        assert!(counts[14..20].iter().all(|&c| c == 1));
    }

    #[test]
    fn mid_mutation_prefix_is_clamped_to_the_chunk() {
        let plan = FaultPlan::new(10).inject(0, FaultKind::PanicMidMutation { after_iters: 99 });
        let k = FaultyKernel::new(Counter(UnsafeCell::new(vec![0; 10])), plan);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: single-threaded.
            unsafe { k.execute(0..10) }
        }));
        assert!(r.is_err(), "still panics even with the whole chunk run");
        assert!(k.into_inner().0.into_inner().iter().all(|&c| c == 1));
    }

    #[test]
    fn silent_bit_flip_executes_fully_then_corrupts_without_panicking() {
        let plan = FaultPlan::new(10).inject(
            1,
            FaultKind::SilentBitFlip {
                after_iters: u64::MAX, // flip after the whole chunk body
                offset: 3,
                xor: 0xFF,
                in_footprint: true,
            },
        );
        assert!(!plan.has_mid_mutation(), "a flip is not a panic");
        let k = FaultyKernel::new(Counter(UnsafeCell::new(vec![0; 40])), plan);
        assert!(k.panics_before_mutation(), "the fail-stop promise stands");
        // SAFETY: single-threaded.
        unsafe { k.execute(10..20) };
        assert_eq!(k.fired(), vec![1], "the flip fired — and nothing panicked");
        // Second touch (a replay / salvage) is clean: fire-once.
        // SAFETY: single-threaded.
        unsafe { k.execute(10..20) };
        let counts = k.into_inner().0.into_inner();
        // First touch: count 1, then XOR (1 ^ 0xFF = 254); second, clean
        // touch increments to 255.
        assert_eq!(counts[13], (1 ^ 0xFF) + 1, "offset 3 was XORed once");
        assert!(
            counts[10..20]
                .iter()
                .enumerate()
                .all(|(i, &c)| i == 3 || c == 2),
            "every other element executed twice, uncorrupted: {counts:?}"
        );
    }

    #[test]
    fn range_helpers_reach_the_inner_kernel_as_ranges() {
        /// Logs which helper entry points were called.
        #[derive(Default)]
        struct Batched(Mutex<Vec<String>>);
        impl Batched {
            fn log(&self, call: String) {
                self.0.lock().unwrap().push(call);
            }
        }
        impl RealKernel for Batched {
            fn iters(&self) -> u64 {
                64
            }
            unsafe fn execute(&self, _: Range<u64>) {}
            fn prefetch_iter(&self, i: u64) {
                self.log(format!("prefetch_iter {i}"));
            }
            fn prefetch_range(&self, range: Range<u64>) {
                self.log(format!("prefetch_range {range:?}"));
            }
            fn pack_iter(&self, i: u64, _: &mut Vec<u8>) -> bool {
                self.log(format!("pack_iter {i}"));
                true
            }
            fn pack_range(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
                self.log(format!("pack_range {range:?}"));
                buf.extend(range.map(|i| i as u8));
                true
            }
        }

        // A plan on the very chunk being helped: helpers never trip faults.
        let plan = FaultPlan::new(16).inject(0, FaultKind::Panic);
        let k = FaultyKernel::new(Batched::default(), plan);
        let mut buf = Vec::new();
        assert!(k.pack_range(3..9, &mut buf));
        k.prefetch_range(3..9);
        assert_eq!(buf, [3, 4, 5, 6, 7, 8], "the inner batch packer's bytes");
        assert!(k.fired().is_empty());
        // One range call each: the wrapper did not fall back to the
        // trait's per-iteration defaults.
        let log = k.into_inner().0.into_inner().unwrap();
        assert_eq!(log, ["pack_range 3..9", "prefetch_range 3..9"]);
    }

    #[test]
    fn thread_targeting_maps_to_round_robin_ownership() {
        // Thread 2 of 3 executes chunks 2, 5, 8, ...
        assert_eq!(FaultPlan::chunk_owned_by(2, 0, 3), 2);
        assert_eq!(FaultPlan::chunk_owned_by(2, 1, 3), 5);
        let plan = FaultPlan::new(4).inject(5, FaultKind::Panic);
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
    }
}
