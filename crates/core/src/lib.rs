//! # cascade-core — cascaded execution
//!
//! The primary contribution of *Cascaded Execution: Speeding Up
//! Unparallelized Execution on Shared-Memory Multiprocessors* (Anderson,
//! Nguyen, Zahorjan — IPPS 1999), reproduced as a library.
//!
//! An unparallelizable loop must run sequentially; cascaded execution makes
//! the otherwise-idle processors of a shared-memory machine useful by
//! rotating *execution phases* (contiguous chunks of the iteration space)
//! across them, while every other processor runs a *helper phase* that
//! optimizes its memory state for its next turn:
//!
//! * [`HelperPolicy::Prefetch`] — shadow-execute the next chunk, loading
//!   operands into the local caches;
//! * [`HelperPolicy::Restructure`] — stream read-only operands, in dynamic
//!   reference order, into a dense per-processor *sequential buffer*
//!   (eliminating conflict misses, filling every line with useful data,
//!   removing indexing work, and optionally hoisting read-only computation
//!   into the helper).
//!
//! Three simulators share the same walkers (so reference streams are
//! identical by construction), and the two cascades share one schedule:
//!
//! * [`run_sequential`] — the single-processor baseline;
//! * [`run_cascaded`] — the bounded-`P` schedule with per-chunk control
//!   transfers, helper windows, and the paper's jump-out-of-helper
//!   modification;
//! * [`run_unbounded`] — the §3.4 methodology used for the future-machine
//!   projections: the same schedule at one processor without jump-out, so
//!   helpers always complete, with helper time off the critical path.
//!
//! ## Example
//!
//! ```
//! use cascade_core::{run_cascaded, run_sequential, CascadeConfig, HelperPolicy};
//! use cascade_mem::machines::pentium_pro;
//! use cascade_trace::{AddressSpace, IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload};
//!
//! // A memory-bound streaming loop: y(i) = f(a(i)), 2MB footprint.
//! let mut space = AddressSpace::new();
//! let a = space.alloc("a", 8, 1 << 17);
//! let y = space.alloc("y", 8, 1 << 17);
//! let spec = LoopSpec {
//!     name: "stream".into(),
//!     iters: 1 << 17,
//!     refs: vec![
//!         StreamRef { name: "a(i)", array: a, pattern: Pattern::Affine { base: 0, stride: 1 },
//!                     mode: Mode::Read, bytes: 8, hoistable: false },
//!         StreamRef { name: "y(i)", array: y, pattern: Pattern::Affine { base: 0, stride: 1 },
//!                     mode: Mode::Write, bytes: 8, hoistable: false },
//!     ],
//!     compute: 2.0, hoistable_compute: 0.0, hoist_result_bytes: 0,
//! };
//! let w = Workload { space, index: IndexStore::new(), loops: vec![spec] };
//!
//! let machine = pentium_pro();
//! let baseline = run_sequential(&machine, &w, 1, true);
//! let cascaded = run_cascaded(&machine, &w, &CascadeConfig {
//!     policy: HelperPolicy::Restructure { hoist: false },
//!     ..CascadeConfig::default()
//! });
//! let speedup = cascaded.overall_speedup_vs(&baseline);
//! assert!(speedup > 1.0);
//! ```

#![warn(missing_docs)]

pub mod amdahl;
pub mod cascade;
pub mod chunk;
pub mod hash;
pub mod metrics;
pub mod policy;
pub mod report;
pub mod seq;
pub mod timeline;
pub mod unbounded;
pub mod walk;

pub use amdahl::AmdahlModel;
pub use cascade::run_cascaded;
pub use chunk::ChunkPlan;
pub use hash::{fnv64, fnv64_words, FNV64_BASIS};
pub use metrics::{
    CascadeMetrics, LatencyStats, MetricsSource, PhaseKind, PhaseSample, WorkerMetrics,
};
pub use policy::HelperPolicy;
pub use report::{CascadeConfig, LoopReport, PhaseTotals, RunReport, UNBOUNDED_PROCS};
pub use seq::run_sequential;
pub use timeline::{ChunkEvent, Timeline};
pub use unbounded::{run_unbounded, UnboundedConfig};
pub use walk::{
    exec_original, exec_restructured, helper_pack, helper_prefetch, HelperOutcome,
    INDIRECT_INDEXING_CYCLES, LOOP_CONTROL_CYCLES, PACK_CYCLES_PER_REF,
};
