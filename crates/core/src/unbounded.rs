//! The unbounded-processor model of §3.4.
//!
//! The paper evaluates future machines by "running on a single processor,
//! which alternates between helper and execution phases. Helper loops are
//! allowed to run to completion, which models a system with enough
//! processors that each completes each helper phase before being signaled
//! to begin a new execution phase. Overall execution time is calculated by
//! summing the time spent in the execution phases and adding in the cost
//! of control transfers (one transfer per chunk)."
//!
//! That is the bounded cascade schedule of [`crate::cascade`] at one
//! processor, without jump-out (so every helper completes), with helper
//! time left off the critical path: a loop's cycles are the sum of its
//! execution phases plus `chunks x transfer_cost`.

use cascade_mem::MachineConfig;
use cascade_trace::Workload;

use crate::policy::HelperPolicy;
use crate::report::{CascadeConfig, RunReport};

/// Parameters of an unbounded-model run.
#[derive(Debug, Clone)]
pub struct UnboundedConfig {
    /// Chunk byte budget.
    pub chunk_bytes: u64,
    /// Helper policy (helpers always run to completion in this model).
    pub policy: HelperPolicy,
    /// Number of invocations of the loop sequence; the last is measured.
    pub calls: usize,
    /// Flush caches between calls.
    pub flush_between_calls: bool,
}

impl Default for UnboundedConfig {
    fn default() -> Self {
        UnboundedConfig {
            chunk_bytes: 64 * 1024,
            policy: HelperPolicy::Restructure { hoist: true },
            calls: 1,
            flush_between_calls: true,
        }
    }
}

/// Simulate the unbounded-processor cascade of §3.4 and report the final
/// call.
pub fn run_unbounded(
    machine: &MachineConfig,
    workload: &Workload,
    cfg: &UnboundedConfig,
) -> RunReport {
    let bounded = CascadeConfig {
        nprocs: 1,
        chunk_bytes: cfg.chunk_bytes,
        policy: cfg.policy,
        jump_out: false,
        calls: cfg.calls,
        flush_between_calls: cfg.flush_between_calls,
    };
    crate::cascade::drive(machine, workload, &bounded, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::UNBOUNDED_PROCS;
    use crate::seq::run_sequential;
    use cascade_mem::machines::{future, pentium_pro, r10000};
    use cascade_trace::{AddressSpace, IndexStore, LoopSpec, Mode, Pattern, StreamRef};

    /// The paper's synthetic loop: X(IJ(i)) = X(IJ(i)) + A(i) + B(i),
    /// with IJ the identity and step k (1 = dense, 8 = sparse).
    fn synthetic(n: u64, k: i64) -> Workload {
        let mut space = AddressSpace::new();
        let x = space.alloc("x", 4, n);
        let a = space.alloc("a", 4, n);
        let b = space.alloc("b", 4, n);
        let ij = space.alloc("ij", 4, n);
        let mut index = IndexStore::new();
        index.set(ij, (0..n as u32).collect());
        let iters = n / k as u64;
        let spec = LoopSpec {
            name: format!("synthetic k={k}"),
            iters,
            refs: vec![
                StreamRef {
                    name: "a(i)",
                    array: a,
                    pattern: Pattern::Affine { base: 0, stride: k },
                    mode: Mode::Read,
                    bytes: 4,
                    hoistable: true,
                },
                StreamRef {
                    name: "b(i)",
                    array: b,
                    pattern: Pattern::Affine { base: 0, stride: k },
                    mode: Mode::Read,
                    bytes: 4,
                    hoistable: true,
                },
                StreamRef {
                    name: "x(ij(i))",
                    array: x,
                    pattern: Pattern::Indirect {
                        index: ij,
                        ibase: 0,
                        istride: k,
                    },
                    mode: Mode::Modify,
                    bytes: 4,
                    hoistable: false,
                },
            ],
            compute: 3.0,
            hoistable_compute: 1.0,
            hoist_result_bytes: 4,
        };
        Workload {
            space,
            index,
            loops: vec![spec],
        }
    }

    #[test]
    fn unbounded_restructure_gives_large_sparse_speedup() {
        let w = synthetic(1 << 20, 8);
        let m = pentium_pro();
        let base = run_sequential(&m, &w, 1, true);
        let cfg = UnboundedConfig {
            chunk_bytes: 32 * 1024,
            policy: HelperPolicy::Restructure { hoist: true },
            calls: 1,
            flush_between_calls: true,
        };
        let r = run_unbounded(&m, &w, &cfg);
        let s = r.overall_speedup_vs(&base);
        assert!(
            s > 4.0,
            "sparse synthetic loop should speed up strongly, got {s:.2}"
        );
    }

    #[test]
    fn sparse_beats_dense_speedup() {
        // The sparse loop has no spatial locality, so it is more memory
        // bound and gains more (paper: 16x sparse vs 4x dense on the PPro).
        let m = pentium_pro();
        let cfg = UnboundedConfig {
            chunk_bytes: 32 * 1024,
            policy: HelperPolicy::Restructure { hoist: true },
            calls: 1,
            flush_between_calls: true,
        };
        let dense_w = synthetic(1 << 20, 1);
        let sparse_w = synthetic(1 << 20, 8);
        let dense_s = run_unbounded(&m, &dense_w, &cfg)
            .overall_speedup_vs(&run_sequential(&m, &dense_w, 1, true));
        let sparse_s = run_unbounded(&m, &sparse_w, &cfg)
            .overall_speedup_vs(&run_sequential(&m, &sparse_w, 1, true));
        assert!(
            sparse_s > dense_s,
            "sparse ({sparse_s:.2}x) must out-speed dense ({dense_s:.2}x)"
        );
    }

    #[test]
    fn future_memory_scaling_increases_speedup() {
        let w = synthetic(1 << 19, 8);
        let today = pentium_pro();
        let tomorrow = future(&today, 4.0);
        let cfg = UnboundedConfig {
            chunk_bytes: 32 * 1024,
            policy: HelperPolicy::Restructure { hoist: true },
            calls: 1,
            flush_between_calls: true,
        };
        let s_today = run_unbounded(&today, &w, &cfg)
            .overall_speedup_vs(&run_sequential(&today, &w, 1, true));
        let s_tomorrow = run_unbounded(&tomorrow, &w, &cfg)
            .overall_speedup_vs(&run_sequential(&tomorrow, &w, 1, true));
        assert!(
            s_tomorrow > s_today,
            "slower memory must make cascading more valuable: {s_tomorrow:.2} vs {s_today:.2}"
        );
    }

    #[test]
    fn unbounded_upper_bounds_bounded_cascade() {
        let w = synthetic(1 << 18, 8);
        let m = pentium_pro();
        let policy = HelperPolicy::Restructure { hoist: true };
        let unb = run_unbounded(
            &m,
            &w,
            &UnboundedConfig {
                chunk_bytes: 64 * 1024,
                policy,
                calls: 1,
                flush_between_calls: true,
            },
        );
        let bounded = crate::cascade::run_cascaded(
            &m,
            &w,
            &CascadeConfig {
                nprocs: 4,
                chunk_bytes: 64 * 1024,
                policy,
                jump_out: true,
                calls: 1,
                flush_between_calls: true,
            },
        );
        assert!(
            unb.total_cycles() <= bounded.total_cycles() * 1.05,
            "unbounded ({:.3e}) should not lose to 4 procs ({:.3e})",
            unb.total_cycles(),
            bounded.total_cycles()
        );
    }

    #[test]
    fn reports_mark_unbounded_processor_count() {
        let w = synthetic(1 << 14, 1);
        let r = run_unbounded(&pentium_pro(), &w, &UnboundedConfig::default());
        assert_eq!(r.nprocs, UNBOUNDED_PROCS);
        assert_eq!(r.loops[0].helper_complete, r.loops[0].chunks);
    }

    /// §3.4's definition: a loop's time is its execution phases plus one
    /// transfer per chunk, every helper completes, and there is no
    /// one-processor timeline.
    #[test]
    fn cycles_are_execution_phases_plus_one_transfer_per_chunk() {
        let policies = [
            HelperPolicy::None,
            HelperPolicy::Prefetch,
            HelperPolicy::Restructure { hoist: false },
            HelperPolicy::Restructure { hoist: true },
        ];
        for k in [1, 8] {
            let w = synthetic(32 << 10, k);
            for m in [pentium_pro(), r10000()] {
                for policy in policies {
                    for chunk_bytes in [4 << 10, 16 << 10, 64 << 10] {
                        let cfg = UnboundedConfig {
                            chunk_bytes,
                            policy,
                            calls: 2,
                            flush_between_calls: true,
                        };
                        let r = run_unbounded(&m, &w, &cfg);
                        let case = format!("{} k={k} {} {chunk_bytes}B", m.name, policy.label());
                        for l in &r.loops {
                            let want = l.exec.cycles + l.chunks as f64 * m.transfer_cost as f64;
                            assert!(
                                ((l.cycles - want) / want).abs() < 1e-10,
                                "{case}: {} cycles, want {want}",
                                l.cycles
                            );
                            let helped = !matches!(policy, HelperPolicy::None);
                            let (complete, iters) =
                                if helped { (l.chunks, l.iters) } else { (0, 0) };
                            assert_eq!(l.helper_complete, complete, "{case}");
                            assert_eq!(l.helper_iters, iters, "{case}");
                            assert!(l.timeline.events.is_empty(), "{case}");
                        }
                    }
                }
            }
        }
    }
}
