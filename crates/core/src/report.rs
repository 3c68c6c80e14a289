//! Result types produced by the simulators, and the speedup arithmetic used
//! by every figure of the paper.

use cascade_mem::{ProcStats, Snapshot};

use crate::policy::HelperPolicy;
use crate::timeline::Timeline;

/// Counters attributed to one kind of phase (execution or helper) of one
/// loop, summed over all processors.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PhaseTotals {
    /// Exposed cycles spent in phases of this kind (summed, not makespan).
    pub cycles: f64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L1 data-cache hits.
    pub l1_hits: u64,
    /// L2 cache misses.
    pub l2_misses: u64,
    /// L2 cache hits.
    pub l2_hits: u64,
    /// L3 cache misses (zero on machines without an L3).
    pub l3_misses: u64,
    /// Lines fetched from memory or a remote cache.
    pub mem_lines: u64,
    /// Lines fetched that were dirty in a remote cache.
    pub remote_dirty_lines: u64,
    /// TLB misses (0 unless the machine models a TLB).
    pub tlb_misses: u64,
}

impl PhaseTotals {
    /// Accumulate a snapshot delta (summed over processors) into `self`.
    pub fn add_delta(&mut self, delta: &Snapshot) {
        let t: ProcStats = delta.total();
        self.cycles += t.cycles;
        self.l1_misses += t.l1.misses;
        self.l1_hits += t.l1.hits;
        self.l2_misses += t.l2.misses;
        self.l2_hits += t.l2.hits;
        self.l3_misses += t.l3.misses;
        self.mem_lines += t.mem_lines;
        self.remote_dirty_lines += t.remote_dirty_lines;
        self.tlb_misses += t.tlb_misses;
    }
}

/// Per-loop result of one simulated configuration.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Loop name from the spec.
    pub name: String,
    /// Contribution of this loop to the run's critical path: wall cycles
    /// from the loop's start until its last chunk (and final control
    /// transfer) completed. For the sequential baseline this is simply the
    /// loop's execution time.
    pub cycles: f64,
    /// Execution-phase counters (what the paper's Figures 3-5 report).
    pub exec: PhaseTotals,
    /// Helper-phase counters (off the critical path; reported separately).
    pub helper: PhaseTotals,
    /// Number of chunks the loop was split into (= number of control
    /// transfers charged).
    pub chunks: u64,
    /// Chunks whose helper ran to completion before the token arrived.
    pub helper_complete: u64,
    /// Iterations covered by helper work (prefetched or packed).
    pub helper_iters: u64,
    /// Total iterations of the loop.
    pub iters: u64,
    /// Per-chunk schedule events of a bounded cascade. Empty for the
    /// sequential baseline (no chunks) and the unbounded model, whose
    /// free helpers make no valid one-processor timeline.
    pub timeline: Timeline,
}

impl LoopReport {
    /// Fraction of iterations the helpers covered, in [0, 1].
    pub fn helper_coverage(&self) -> f64 {
        if self.iters == 0 {
            0.0
        } else {
            self.helper_iters as f64 / self.iters as f64
        }
    }
}

/// Full result of simulating one configuration over a loop sequence.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Machine name (Table 1).
    pub machine: String,
    /// Helper policy label.
    pub policy: String,
    /// Processor count (1 for the sequential baseline; `u64::MAX` marks the
    /// unbounded-processor model of §3.4).
    pub nprocs: u64,
    /// Chunk byte budget (0 for the sequential baseline).
    pub chunk_bytes: u64,
    /// Per-loop results of the *measured* call (the paper measures call 12
    /// of ~5000; we measure the last of `calls`).
    pub loops: Vec<LoopReport>,
}

/// Marker value of [`RunReport::nprocs`] for the unbounded model.
pub const UNBOUNDED_PROCS: u64 = u64::MAX;

impl RunReport {
    /// Total critical-path cycles across all loops.
    pub fn total_cycles(&self) -> f64 {
        self.loops.iter().map(|l| l.cycles).sum()
    }

    /// Overall speedup of `self` relative to a baseline run over the same
    /// loops (paper Figure 2): ratio of total times.
    pub fn overall_speedup_vs(&self, baseline: &RunReport) -> f64 {
        assert_eq!(
            self.loops.len(),
            baseline.loops.len(),
            "loop count mismatch"
        );
        baseline.total_cycles() / self.total_cycles()
    }

    /// Per-loop speedups relative to a baseline run (paper Figure 3's data
    /// expressed as ratios).
    pub fn loop_speedups_vs(&self, baseline: &RunReport) -> Vec<f64> {
        assert_eq!(
            self.loops.len(),
            baseline.loops.len(),
            "loop count mismatch"
        );
        self.loops
            .iter()
            .zip(&baseline.loops)
            .map(|(mine, base)| base.cycles / mine.cycles)
            .collect()
    }

    /// Construct a human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} / {} / {} procs / {} KB chunks: {:.3e} cycles over {} loops",
            self.machine,
            self.policy,
            if self.nprocs == UNBOUNDED_PROCS {
                "unbounded".to_string()
            } else {
                self.nprocs.to_string()
            },
            self.chunk_bytes / 1024,
            self.total_cycles(),
            self.loops.len()
        )
    }
}

/// Shared run parameters for the cascading simulators.
#[derive(Debug, Clone)]
pub struct CascadeConfig {
    /// Number of processors cascading the loop (>= 2 for a real cascade).
    pub nprocs: usize,
    /// Chunk byte budget (§2.2); the paper's headline setting is 64KB.
    pub chunk_bytes: u64,
    /// Helper policy.
    pub policy: HelperPolicy,
    /// Jump out of an unfinished helper phase as soon as the token arrives
    /// (the §3.3 modification; the paper's published results enable it).
    pub jump_out: bool,
    /// How many times the loop sequence is invoked; the last call is
    /// measured (PARMVR is called ~5000 times; the paper measures call 12).
    pub calls: usize,
    /// Flush all caches between calls, modelling the application's
    /// intervening (parallel) phases displacing the loop data.
    pub flush_between_calls: bool,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            nprocs: 4,
            chunk_bytes: 64 * 1024,
            policy: HelperPolicy::Restructure { hoist: true },
            jump_out: true,
            calls: 2,
            flush_between_calls: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loop_report(name: &str, cycles: f64) -> LoopReport {
        LoopReport {
            name: name.into(),
            cycles,
            exec: PhaseTotals::default(),
            helper: PhaseTotals::default(),
            chunks: 1,
            helper_complete: 1,
            helper_iters: 10,
            iters: 10,
            timeline: Timeline::default(),
        }
    }

    fn run(cycles: &[f64]) -> RunReport {
        RunReport {
            machine: "m".into(),
            policy: "p".into(),
            nprocs: 4,
            chunk_bytes: 65536,
            loops: cycles
                .iter()
                .enumerate()
                .map(|(i, &c)| loop_report(&format!("L{i}"), c))
                .collect(),
        }
    }

    #[test]
    fn overall_speedup_is_ratio_of_totals() {
        let base = run(&[100.0, 300.0]);
        let fast = run(&[50.0, 150.0]);
        assert!((fast.overall_speedup_vs(&base) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn per_loop_speedups() {
        let base = run(&[100.0, 300.0]);
        let fast = run(&[200.0, 100.0]);
        let s = fast.loop_speedups_vs(&base);
        assert!((s[0] - 0.5).abs() < 1e-12, "slowdowns are expressible too");
        assert!((s[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn helper_coverage_fraction() {
        let mut l = loop_report("x", 1.0);
        l.helper_iters = 5;
        assert!((l.helper_coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "loop count mismatch")]
    fn speedup_requires_matching_loops() {
        let _ = run(&[1.0]).overall_speedup_vs(&run(&[1.0, 2.0]));
    }
}
