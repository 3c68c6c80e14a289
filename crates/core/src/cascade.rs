//! The cascade scheduler — the system of Figure 1(b), and the one chunk
//! schedule behind both simulated cascades.
//!
//! Chunks of the iteration space rotate round-robin over `P` processors.
//! Exactly one processor is in its execution phase at a time; control
//! passes with a fixed per-chunk transfer cost. Between its turns, each
//! processor runs its helper (prefetch or restructure) for its *next*
//! chunk, in the window between finishing its previous chunk and the
//! token's arrival. With `jump_out` (the paper's §3.3 modification) an
//! unfinished helper is abandoned the moment the token arrives; without it
//! the token stalls until the helper completes.
//!
//! The schedule is simulated chunk-by-chunk in token order: when chunk `j`
//! is processed, the token-arrival time (end of chunk `j-1` plus transfer)
//! and the owning processor's free time (end of chunk `j-P`) are both
//! known, so the helper window — and therefore the helper's cycle budget —
//! is exact. Helper cache effects are simulated *after* the preceding
//! chunks' execution effects; this slightly favours the helper (it can see
//! writes that temporally overlapped it), which we accept and document in
//! DESIGN.md §6.3.
//!
//! The §3.4 unbounded model ([`crate::run_unbounded`]) is this schedule at one
//! processor without jump-out and with `free_helpers`: a loop's cycles are
//! its execution phases plus one transfer per chunk, its `nprocs` is
//! [`UNBOUNDED_PROCS`], and it has no timeline. Nothing else differs.

use cascade_mem::{MachineConfig, System};
use cascade_trace::{Resolver, Workload};

use crate::chunk::ChunkPlan;
use crate::policy::HelperPolicy;
use crate::report::{CascadeConfig, LoopReport, PhaseTotals, RunReport, UNBOUNDED_PROCS};
use crate::timeline::{ChunkEvent, Timeline};
use crate::walk::{exec_original, exec_restructured, helper_pack, helper_prefetch, HelperOutcome};

/// A helper that did nothing: no policy, or a jump-out with no window.
const IDLE: HelperOutcome = HelperOutcome {
    cycles: 0.0,
    iters_done: 0,
};

/// Simulate cascaded execution of the workload's loop sequence under `cfg`
/// and report the final call.
pub fn run_cascaded(
    machine: &MachineConfig,
    workload: &Workload,
    cfg: &CascadeConfig,
) -> RunReport {
    drive(machine, workload, cfg, false)
}

/// The chunk schedule behind [`run_cascaded`] and, with
/// `free_helpers`, [`crate::run_unbounded`].
pub(crate) fn drive(
    machine: &MachineConfig,
    workload: &Workload,
    cfg: &CascadeConfig,
    free_helpers: bool,
) -> RunReport {
    assert!(cfg.nprocs >= 1, "cascade needs at least one processor");
    assert!(cfg.calls >= 1, "at least one call required");
    workload.validate();

    // Per-processor sequential buffers live in a (cloned) extension of the
    // workload's address space, so buffer traffic exercises the same cache
    // model as everything else.
    let mut space = workload.space.clone();
    let hoist = cfg.policy.hoists();
    let plan_of = |spec| ChunkPlan::new(spec, cfg.chunk_bytes, machine.l1.line as u64);
    let buffer_bases: Vec<u64> = if cfg.policy.packs() {
        let buf_len = workload.loops.iter().fold(1, |len: u64, spec| {
            len.max(plan_of(spec).iters_per_chunk() * spec.packed_bytes_per_iter(hoist))
        });
        (0..cfg.nprocs)
            .map(|p| {
                let id = space.alloc_aligned(&format!("packbuf{p}"), 1, buf_len, 64);
                space.array(id).base
            })
            .collect()
    } else {
        vec![0; cfg.nprocs]
    };

    let res = Resolver::new(&space, &workload.index);
    let mut sys = System::new(machine.clone(), cfg.nprocs);
    let transfer = machine.transfer_cost as f64;
    let mut now = 0.0f64;
    let mut loops = Vec::new();

    for call in 0..cfg.calls {
        if call > 0 && cfg.flush_between_calls {
            sys.flush_all();
        }
        let measured = call == cfg.calls - 1;
        if measured {
            loops.clear();
        }
        for spec in &workload.loops {
            sys.begin_region();
            let plan = plan_of(spec);
            let loop_start = now;
            let mut proc_free = vec![now; cfg.nprocs];
            let mut prev_end = now;
            let mut exec_tot = PhaseTotals::default();
            let mut helper_tot = PhaseTotals::default();
            let mut helper_complete = 0u64;
            let mut helper_iters = 0u64;
            let mut exec_sum = 0.0f64;
            let mut events: Vec<ChunkEvent> = Vec::new();

            for j in 0..plan.num_chunks() {
                let p = (j as usize) % cfg.nprocs;
                let buf = buffer_bases[p];
                let range = plan.range(j);
                let range_len = range.end - range.start;
                let token_arrival = if j == 0 {
                    loop_start
                } else {
                    prev_end + transfer
                };
                let window = (token_arrival - proc_free[p]).max(0.0);
                let budget = cfg.jump_out.then_some(window);

                // --- helper phase ---
                let s0 = sys.snapshot();
                let helper = match cfg.policy {
                    HelperPolicy::None => IDLE,
                    _ if cfg.jump_out && window <= 0.0 => IDLE,
                    HelperPolicy::Prefetch => {
                        helper_prefetch(&mut sys, p, res, spec, range.clone(), budget)
                    }
                    HelperPolicy::Restructure { hoist } => {
                        helper_pack(&mut sys, p, res, spec, range.clone(), buf, hoist, budget)
                    }
                };
                let s1 = sys.snapshot();

                // --- execution phase ---
                let start = token_arrival.max(proc_free[p] + helper.cycles);
                let packed = helper.iters_done;
                let exec_cycles = match cfg.policy {
                    HelperPolicy::None | HelperPolicy::Prefetch => {
                        exec_original(&mut sys, p, res, spec, range)
                    }
                    HelperPolicy::Restructure { hoist } => {
                        exec_restructured(&mut sys, p, res, spec, range, buf, hoist, packed)
                    }
                };
                let end = start + exec_cycles;
                exec_sum += exec_cycles;
                let helper_start = proc_free[p];
                proc_free[p] = end;
                prev_end = end;

                if measured {
                    let s2 = sys.snapshot();
                    helper_tot.add_delta(&s1.since(&s0));
                    exec_tot.add_delta(&s2.since(&s1));
                    helper_iters += helper.iters_done.min(range_len);
                    // An idle helper covers no iteration of a (non-empty) chunk.
                    helper_complete += u64::from(helper.completed(range_len));
                    events.push(ChunkEvent {
                        chunk: j,
                        proc: p,
                        helper_start,
                        helper_cycles: helper.cycles,
                        token_arrival,
                        exec_start: start,
                        exec_end: end,
                        helper_iters: helper.iters_done.min(range_len),
                        iters: range_len,
                    });
                }
            }

            // Final transfer hands control back (one transfer per chunk in
            // total, as in the paper's accounting).
            let loop_end = prev_end + transfer;
            now = loop_end;
            if measured {
                loops.push(LoopReport {
                    name: spec.name.clone(),
                    cycles: if free_helpers {
                        exec_sum + plan.num_chunks() as f64 * transfer
                    } else {
                        loop_end - loop_start
                    },
                    exec: exec_tot,
                    helper: helper_tot,
                    chunks: plan.num_chunks(),
                    helper_complete,
                    helper_iters,
                    iters: spec.iters,
                    timeline: if free_helpers {
                        Timeline::default()
                    } else {
                        Timeline {
                            events,
                            nprocs: cfg.nprocs,
                        }
                    },
                });
            }
        }
    }

    RunReport {
        machine: machine.name.to_string(),
        policy: cfg.policy.label().to_string(),
        nprocs: if free_helpers {
            UNBOUNDED_PROCS
        } else {
            cfg.nprocs as u64
        },
        chunk_bytes: cfg.chunk_bytes,
        loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::run_sequential;
    use cascade_mem::machines::pentium_pro;
    use cascade_trace::{AddressSpace, IndexStore, LoopSpec, Mode, Pattern, StreamRef};

    /// A memory-bound gather workload whose footprint (3 x 2MB) greatly
    /// exceeds the Pentium Pro's 512KB L2, so the baseline misses heavily.
    fn memory_bound() -> Workload {
        let n: u64 = 1 << 18; // 256K iterations
        let mut space = AddressSpace::new();
        let x = space.alloc("x", 8, n);
        let a = space.alloc("a", 8, n);
        let ij = space.alloc("ij", 4, n);
        let mut index = IndexStore::new();
        // A strided permutation: data-dependent but touching every element.
        let stride = 4097u64; // odd, coprime with n
        index.set(ij, (0..n).map(|i| ((i * stride) % n) as u32).collect());
        let spec = LoopSpec {
            name: "gather-update".into(),
            iters: n,
            refs: vec![
                StreamRef {
                    name: "a(ij(i))",
                    array: a,
                    pattern: Pattern::Indirect {
                        index: ij,
                        ibase: 0,
                        istride: 1,
                    },
                    mode: Mode::Read,
                    bytes: 8,
                    hoistable: true,
                },
                StreamRef {
                    name: "x(i)",
                    array: x,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Modify,
                    bytes: 8,
                    hoistable: false,
                },
            ],
            compute: 2.0,
            hoistable_compute: 1.0,
            hoist_result_bytes: 8,
        };
        Workload {
            space,
            index,
            loops: vec![spec],
        }
    }

    fn cfg(policy: HelperPolicy, nprocs: usize) -> CascadeConfig {
        CascadeConfig {
            nprocs,
            chunk_bytes: 64 * 1024,
            policy,
            jump_out: true,
            calls: 1,
            flush_between_calls: true,
        }
    }

    #[test]
    fn restructured_cascade_beats_sequential_on_memory_bound_loop() {
        let w = memory_bound();
        let m = pentium_pro();
        let base = run_sequential(&m, &w, 1, true);
        let casc = run_cascaded(&m, &w, &cfg(HelperPolicy::Restructure { hoist: true }, 4));
        let s = casc.overall_speedup_vs(&base);
        assert!(s > 1.1, "expected speedup > 1.1, got {s:.3}");
    }

    #[test]
    fn helperless_cascade_only_adds_overhead() {
        let w = memory_bound();
        let m = pentium_pro();
        let base = run_sequential(&m, &w, 1, true);
        let casc = run_cascaded(&m, &w, &cfg(HelperPolicy::None, 4));
        let s = casc.overall_speedup_vs(&base);
        assert!(
            s <= 1.0,
            "no-helper cascade cannot speed anything up, got {s:.3}"
        );
    }

    #[test]
    fn more_processors_do_not_hurt_restructured() {
        let w = memory_bound();
        let m = pentium_pro();
        let two = run_cascaded(&m, &w, &cfg(HelperPolicy::Restructure { hoist: true }, 2));
        let four = run_cascaded(&m, &w, &cfg(HelperPolicy::Restructure { hoist: true }, 4));
        assert!(
            four.total_cycles() <= two.total_cycles() * 1.02,
            "4 procs ({:.3e}) should not be slower than 2 ({:.3e})",
            four.total_cycles(),
            two.total_cycles()
        );
    }

    #[test]
    fn helper_coverage_grows_with_processors() {
        let w = memory_bound();
        let m = pentium_pro();
        let two = run_cascaded(&m, &w, &cfg(HelperPolicy::Prefetch, 2));
        let six = run_cascaded(&m, &w, &cfg(HelperPolicy::Prefetch, 6));
        assert!(
            six.loops[0].helper_coverage() >= two.loops[0].helper_coverage(),
            "more processors mean longer helper windows"
        );
    }

    #[test]
    fn execution_phase_misses_drop_under_prefetch() {
        let w = memory_bound();
        let m = pentium_pro();
        let base = run_sequential(&m, &w, 1, true);
        let casc = run_cascaded(&m, &w, &cfg(HelperPolicy::Prefetch, 4));
        assert!(
            casc.loops[0].exec.l2_misses < base.loops[0].exec.l2_misses,
            "prefetch helpers must move L2 misses off the execution phase: {} vs {}",
            casc.loops[0].exec.l2_misses,
            base.loops[0].exec.l2_misses
        );
        assert!(
            casc.loops[0].helper.l2_misses > 0,
            "the misses moved to the helpers"
        );
    }

    #[test]
    fn transfer_count_equals_chunks() {
        let w = memory_bound();
        let m = pentium_pro();
        let casc = run_cascaded(&m, &w, &cfg(HelperPolicy::Prefetch, 4));
        // Line footprint/iter: gather a(ij(i)) = 32B line + 4B index,
        // x(i) modify = 8B -> 44 bytes -> 1489 iters per 64KB chunk.
        let spec = &w.loops[0];
        let expected = ChunkPlan::new(spec, 64 * 1024, 32).num_chunks();
        assert_eq!(casc.loops[0].chunks, expected);
        assert_eq!(expected, (1u64 << 18).div_ceil((64 * 1024) / 44));
    }

    #[test]
    fn jump_out_trades_coverage_for_earlier_starts() {
        // The documented model behaviour (EXPERIMENTS.md, ablation B):
        // stalling always reaches full helper coverage; jump-out starts
        // execution sooner at the cost of partially-helped chunks. With
        // enough processors the two converge because windows are long
        // enough for helpers to finish anyway.
        let w = memory_bound();
        let m = pentium_pro();
        let mut c = cfg(HelperPolicy::Restructure { hoist: false }, 2);
        let jump2 = run_cascaded(&m, &w, &c);
        c.jump_out = false;
        let stall2 = run_cascaded(&m, &w, &c);
        assert!((stall2.loops[0].helper_coverage() - 1.0).abs() < 1e-12);
        assert!(jump2.loops[0].helper_coverage() < 1.0);

        let mut c4 = cfg(HelperPolicy::Restructure { hoist: false }, 4);
        let jump4 = run_cascaded(&m, &w, &c4);
        c4.jump_out = false;
        let stall4 = run_cascaded(&m, &w, &c4);
        let ratio = jump4.total_cycles() / stall4.total_cycles();
        assert!(
            (0.9..1.1).contains(&ratio),
            "at 4 procs jump-out and stalling should be within 10%: ratio {ratio:.3}"
        );
        // And jump-out must never deadlock progress: it is within 2x even
        // in the tight 2-processor case.
        assert!(jump2.total_cycles() < stall2.total_cycles() * 2.0);
    }

    #[test]
    fn repeated_calls_are_deterministic() {
        let w = memory_bound();
        let m = pentium_pro();
        let a = run_cascaded(&m, &w, &cfg(HelperPolicy::Restructure { hoist: true }, 4));
        let b = run_cascaded(&m, &w, &cfg(HelperPolicy::Restructure { hoist: true }, 4));
        assert_eq!(a.total_cycles(), b.total_cycles());
        assert_eq!(a.loops[0].exec.l2_misses, b.loops[0].exec.l2_misses);
    }
}
