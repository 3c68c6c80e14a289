//! The six workloads: generated inputs, twin programs, and the public
//! entry point each one drives.
//!
//! Every workload is a list of [`Unit`]s. A unit is one generated input
//! turned into two `SpecProgram`s over copies of the same arena: the
//! sequential twin only ever sees `run_sequential`, the cascaded twin only
//! ever the real-thread entry point. Both twins apply the same number of
//! reps, so their arena checksums must agree whenever they are compared.
//!
//! Sizes are constants: the benchmark measures the same problem on every
//! commit. They are chosen so one sequential rep lasts at least 40 ms
//! (shorter reps drifted run to run), and so each array of the
//! memory-bound workload is several times the 2 x 2 MiB of L2 the two
//! threads own (the 260 MiB L3 of the measurement host is shared with
//! other tenants and is stated in the host record).

use std::time::{Duration, Instant};

use cascade_analyze::plan::{plan_loop, Schedule, TransformPlan};
use cascade_kernels::Kernel;
use cascade_rt::{
    fission_specs, run_sequential, try_run_governed, try_run_governed_sequence, try_run_planned,
    Observe, PlannedStats, RtPolicy, RunConfig, RunError, RunStats, RunnerConfig, SpecProgram,
    Tolerance, VerifyPolicy,
};
use cascade_synth::{Synth, SynthArrays, Variant};
use cascade_trace::{
    AddressSpace, Arena, IndexStore, LoopSpec, Mode, Pattern, StreamRef, Workload,
};
use cascade_wave5::{Parmvr, ParmvrParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::span::{Recorder, SpanId};

/// Threads of every cascaded run: the paper's minimal configuration, one
/// executor plus one helper.
pub const NTHREADS: usize = 2;

/// The workloads, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Memory-bound sparse synthetic loop under Restructure.
    SparsePack,
    /// Three indirect zoo kernels back to back under Prefetch.
    ZooPrefetch,
    /// Dense synthetic loop in 64-iteration chunks: handoff-bound.
    DenseHandoff,
    /// All fifteen PARMVR loops through one sequence pool.
    Wave5Seq15,
    /// A fused stream and a lag-2 recurrence through the plan scheduler.
    PlannedMix,
    /// Dense synthetic loop under replay verification.
    GuardedDense,
}

impl Kind {
    /// Every workload.
    pub const ALL: [Kind; 6] = [
        Kind::SparsePack,
        Kind::ZooPrefetch,
        Kind::DenseHandoff,
        Kind::Wave5Seq15,
        Kind::PlannedMix,
        Kind::GuardedDense,
    ];

    /// The fixed name (`BENCHMARK.json` uses the same).
    pub fn name(self) -> &'static str {
        match self {
            Kind::SparsePack => "sparse_pack",
            Kind::ZooPrefetch => "zoo_prefetch",
            Kind::DenseHandoff => "dense_handoff",
            Kind::Wave5Seq15 => "wave5_seq15",
            Kind::PlannedMix => "planned_mix",
            Kind::GuardedDense => "guarded_dense",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload exists and which layer it isolates.
    pub fn why(self) -> &'static str {
        match self {
            Kind::SparsePack => {
                "memory-bound sparse loop under Restructure: pack_iter + execute_packed do the work, handoffs almost none"
            }
            Kind::ZooPrefetch => {
                "spmv, pointer chase and triangular solve under Prefetch: the helper layer used the other way, horizon-gated"
            }
            Kind::DenseHandoff => {
                "dense loop in 64-iteration chunks: runner per-chunk overhead and the cross-core token handoff dominate"
            }
            Kind::Wave5Seq15 => {
                "all 15 PARMVR loops through the sequence pool and its barrier: the paper's headline workload"
            }
            Kind::PlannedMix => {
                "plan scheduler only: DOALL split, DOACROSS post/wait gate, cascaded sequential residue"
            }
            Kind::GuardedDense => {
                "dense loop under EveryChunk verification: journal capture, digest and replay audit on the write side"
            }
        }
    }

    /// Iterations per chunk.
    pub fn iters_per_chunk(self) -> u64 {
        match self {
            Kind::SparsePack | Kind::GuardedDense => 4096,
            Kind::ZooPrefetch | Kind::Wave5Seq15 => 2048,
            Kind::DenseHandoff => 64,
            Kind::PlannedMix => 1024,
        }
    }

    fn policy(self) -> RtPolicy {
        match self {
            Kind::ZooPrefetch => RtPolicy::Prefetch,
            _ => RtPolicy::Restructure,
        }
    }
}

/// How a unit's cascaded twin is driven.
pub enum Entry {
    /// Its single loop through `try_run_governed`.
    Governed,
    /// All its loops through `try_run_governed_sequence`.
    Sequence,
    /// Its fissioned sub-loops through `try_run_planned`.
    Planned(TransformPlan),
}

impl Entry {
    /// Span name of the entry-point call.
    fn span_name(&self) -> &'static str {
        match self {
            Entry::Governed => "rt.try_run_governed",
            Entry::Sequence => "rt.try_run_governed_sequence",
            Entry::Planned(_) => "rt.try_run_planned",
        }
    }
}

/// One generated input as twin programs.
pub struct Unit {
    /// Generator name.
    pub name: &'static str,
    /// The twin `run_sequential` runs on (the original loops).
    pub seq: SpecProgram,
    /// The twin the real-thread entry point runs on (the original loops,
    /// or the plan's fissioned sub-loops).
    pub casc: SpecProgram,
    /// The entry point.
    pub entry: Entry,
    /// Array handles and step of a synthetic unit, for the native
    /// reference loop of the interpreter drill.
    pub synth: Option<(SynthArrays, u64)>,
}

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Input generation, arena copies included.
    pub gen_ms: f64,
    /// `SpecProgram::new` over both twins (the helper-safety analysis).
    pub program_new_ms: f64,
    /// `plan_loop` + `fission_specs` (planned units only).
    pub plan_loop_ms: f64,
    /// All of it, as the user waits for it.
    pub total_s: f64,
}

/// A built workload.
pub struct Case {
    /// Which one.
    pub kind: Kind,
    /// Its units, run back to back in this order.
    pub units: Vec<Unit>,
    /// The configuration every cascaded call uses.
    pub cfg: RunConfig,
    /// Set-up breakdown.
    pub setup: SetupTimes,
}

/// What one cascaded rep returned.
pub struct CascRep {
    /// Wall time of the rep, around the entry-point calls only.
    pub wall: Duration,
    /// `RunStats` of every token-cascaded loop (sequential residues of
    /// planned units included), each with the span of the call it ran in.
    pub runs: Vec<(SpanId, RunStats)>,
    /// `PlannedStats` of every planned unit.
    pub planned: Vec<PlannedStats>,
}

impl CascRep {
    /// Whether any loop fell back to sequential salvage.
    pub fn degraded(&self) -> bool {
        self.runs.iter().any(|(_, r)| r.degraded) || self.planned.iter().any(|p| p.degraded)
    }
}

/// A generated input before it becomes twin programs.
struct Input {
    name: &'static str,
    workload: Workload,
    arena: Arena,
    synth: Option<(SynthArrays, u64)>,
}

impl From<Kernel> for Input {
    fn from(k: Kernel) -> Input {
        Input {
            name: k.name,
            workload: k.workload,
            arena: k.arena,
            synth: None,
        }
    }
}

fn synth_input(name: &'static str, n: u64, variant: Variant, seed: u64) -> Input {
    let s = Synth::build(n, variant, seed);
    Input {
        name,
        workload: s.workload,
        arena: s.arena,
        synth: Some((s.arrays, variant.step())),
    }
}

/// A lag-2 recurrence `a(i+2) = f(a(i))` plus an independent consumer
/// `x(i)`: the planner fissions it into `[doacross(2), parallel]`, the
/// only shape that reaches the post/wait gate.
fn lag2_recurrence(n: u64, seed: u64) -> Input {
    let mut space = AddressSpace::new();
    let a = space.alloc("a", 8, n + 2);
    let x = space.alloc("x", 8, n);
    let sref = |name: &'static str, array, base, mode| StreamRef {
        name,
        array,
        pattern: Pattern::Affine { base, stride: 1 },
        mode,
        bytes: 8,
        hoistable: false,
    };
    let spec = LoopSpec {
        name: format!("lag-2 recurrence n={n}"),
        iters: n,
        refs: vec![
            sref("a(i)", a, 0, Mode::Read),
            sref("a(i+2)", a, 2, Mode::Write),
            sref("x(i)", x, 0, Mode::Write),
        ],
        compute: 4.0,
        hoistable_compute: 0.0,
        hoist_result_bytes: 0,
    };
    let workload = Workload {
        space,
        index: IndexStore::new(),
        loops: vec![spec],
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arena = Arena::new(&workload.space);
    for i in 0..n + 2 {
        arena.set_f64(&workload.space, a, i, rng.gen_range(0.01..1.0));
    }
    Input {
        name: "lag2_recurrence",
        workload,
        arena,
        synth: None,
    }
}

/// The generated inputs of `kind`. `quick` shrinks every size (same code
/// paths and checks, reps of a few milliseconds).
fn generate(kind: Kind, seed: u64, quick: bool) -> Vec<Input> {
    let sz = |full: u64, small: u64| if quick { small } else { full };
    match kind {
        Kind::SparsePack => vec![synth_input(
            "synth_sparse",
            sz(20 << 20, 1 << 20),
            Variant::Sparse,
            seed,
        )],
        Kind::DenseHandoff | Kind::GuardedDense => vec![synth_input(
            "synth_dense",
            sz(5 << 20, 1 << 18),
            Variant::Dense,
            seed,
        )],
        Kind::ZooPrefetch => {
            // Sized so each kernel is between a fifth and a half of the rep.
            let n = sz(1 << 20, 1 << 16);
            vec![
                cascade_kernels::seq_spmv(3 * n / 2, n / 2, n, seed).into(),
                cascade_kernels::pointer_chase(2 * n, 8, seed ^ 1).into(),
                cascade_kernels::triangular_solve(n, 4, seed ^ 2).into(),
            ]
        }
        Kind::Wave5Seq15 => {
            let p = Parmvr::build(ParmvrParams {
                scale: if quick { 0.05 } else { 1.0 },
                seed,
            });
            vec![Input {
                name: "parmvr",
                workload: p.workload,
                arena: p.arena,
                synth: None,
            }]
        }
        Kind::PlannedMix => {
            // The DOACROSS stage runs ~40x slower than sequential today;
            // an eighth of the fused stream's length keeps a rep near
            // 0.3 s, so a run still holds dozens of reps.
            let n = sz(4 << 20, 1 << 18);
            vec![
                cascade_kernels::fused_stream(n, seed).into(),
                lag2_recurrence(n / 8, seed ^ 1),
            ]
        }
    }
}

impl Case {
    /// Generate the inputs of `kind` from `seed` and build the twin
    /// programs; the runtime never sees the seed, only the inputs.
    pub fn build(kind: Kind, seed: u64, quick: bool, rec: &mut Recorder) -> Case {
        let t_all = Instant::now();
        let mut setup = SetupTimes::default();
        // One span and one accumulated wall time per set-up stage.
        fn stage<R>(
            rec: &mut Recorder,
            name: &'static str,
            ms: &mut f64,
            f: impl FnOnce() -> R,
        ) -> R {
            let t = Instant::now();
            let r = rec.scope(name, f);
            *ms += t.elapsed().as_secs_f64() * 1e3;
            r
        }

        let inputs = stage(rec, "gen.build", &mut setup.gen_ms, || {
            generate(kind, seed, quick)
        });
        let mut units = Vec::new();
        for input in inputs {
            let (casc_workload, entry) = if kind == Kind::PlannedMix {
                stage(rec, "analysis.plan_loop", &mut setup.plan_loop_ms, || {
                    let w = &input.workload;
                    let plan = plan_loop(w, &w.loops[0]);
                    assert!(
                        !plan.opaque && plan.partition.len() >= 2,
                        "{}: the planner found nothing to fission",
                        input.name
                    );
                    let fissioned = Workload {
                        space: w.space.clone(),
                        index: w.index.clone(),
                        loops: fission_specs(&w.loops[0], &plan),
                    };
                    (fissioned, Entry::Planned(plan))
                })
            } else if input.workload.loops.len() > 1 {
                (input.workload.clone(), Entry::Sequence)
            } else {
                (input.workload.clone(), Entry::Governed)
            };
            let twin_arena = stage(rec, "gen.clone_arena", &mut setup.gen_ms, || {
                input.arena.clone()
            });
            let (seq, casc) = stage(
                rec,
                "analysis.program_new",
                &mut setup.program_new_ms,
                || {
                    let seq = SpecProgram::new(input.workload, input.arena).unwrap_or_else(|e| {
                        panic!("{}: analyzer rejected the input: {e}", input.name)
                    });
                    let casc = SpecProgram::new(casc_workload, twin_arena).unwrap_or_else(|e| {
                        panic!("{}: analyzer rejected the twin: {e}", input.name)
                    });
                    (seq, casc)
                },
            );
            units.push(Unit {
                name: input.name,
                seq,
                casc,
                entry,
                synth: input.synth,
            });
        }

        let guarded = kind == Kind::GuardedDense;
        let cfg = RunConfig {
            runner: RunnerConfig {
                nthreads: NTHREADS,
                iters_per_chunk: kind.iters_per_chunk(),
                policy: kind.policy(),
                poll_batch: 64,
            },
            // The watchdog only has to exist for the retry ladder to be
            // armed; it is far longer than any rep so a descheduled
            // worker on a busy host is never declared stalled.
            tolerance: if guarded {
                Tolerance::retrying(Duration::from_secs(30))
            } else {
                Tolerance::default()
            },
            verify: if guarded {
                VerifyPolicy::EveryChunk
            } else {
                VerifyPolicy::Off
            },
            ..RunConfig::default()
        };
        setup.total_s = t_all.elapsed().as_secs_f64();
        Case {
            kind,
            units,
            cfg,
            setup,
        }
    }

    /// Bytes of one twin's arenas: the working set a rep walks.
    pub fn working_set_bytes(&self) -> u64 {
        self.units
            .iter()
            .map(|u| u.seq.workload().space.extent())
            .sum()
    }

    /// Iterations one rep executes on the sequential twin.
    pub fn iters_per_rep(&self) -> u64 {
        self.units
            .iter()
            .flat_map(|u| u.seq.workload().loops.iter())
            .map(|l| l.iters)
            .sum()
    }

    /// One sequential rep: `run_sequential` over every loop of every
    /// unit's sequential twin.
    pub fn seq_rep(&self, rec: &mut Recorder) -> Duration {
        let t = Instant::now();
        for u in &self.units {
            rec.scope("rt.run_sequential", || {
                for l in 0..u.seq.num_loops() {
                    run_sequential(&u.seq.kernel(l));
                }
            });
        }
        t.elapsed()
    }

    /// One cascaded rep through each unit's public entry point, with
    /// `observe` as the run's observability options.
    pub fn casc_rep(&self, observe: &Observe, rec: &mut Recorder) -> Result<CascRep, RunError> {
        let cfg = RunConfig {
            observe: observe.clone(),
            ..self.cfg.clone()
        };
        let mut out = CascRep {
            wall: Duration::ZERO,
            runs: Vec::new(),
            planned: Vec::new(),
        };
        let t = Instant::now();
        for u in &self.units {
            let kernels: Vec<_> = (0..u.casc.num_loops()).map(|l| u.casc.kernel(l)).collect();
            let span = rec.enter(u.entry.span_name());
            let result = match &u.entry {
                Entry::Governed => try_run_governed(&kernels[0], &cfg).map(|s| {
                    out.runs.push((span, s));
                }),
                Entry::Sequence => try_run_governed_sequence(&kernels, &cfg).map(|all| {
                    out.runs.extend(all.into_iter().map(|s| (span, s)));
                }),
                Entry::Planned(plan) => try_run_planned(&kernels, plan, &cfg).map(|p| {
                    out.runs.extend(
                        p.sub_loops
                            .iter()
                            .filter_map(|s| s.run.clone())
                            .map(|s| (span, s)),
                    );
                    out.planned.push(p);
                }),
            };
            rec.exit(span);
            result?;
        }
        out.wall = t.elapsed();
        Ok(out)
    }

    /// Arena checksums of every unit, `(sequential twin, cascaded twin)`.
    pub fn checksums(&mut self) -> Vec<(u64, u64)> {
        self.units
            .iter_mut()
            .map(|u| (u.seq.checksum(), u.casc.checksum()))
            .collect()
    }

    /// Whether every unit's twins hold bitwise-equal arenas.
    pub fn twins_agree(&mut self) -> bool {
        self.checksums().iter().all(|(a, b)| a == b)
    }
}

// --- closed forms -----------------------------------------------------

/// Chunks of a loop of `iters` iterations: `ceil(iters / ipc)`.
pub fn expected_chunks(iters: u64, ipc: u64) -> u64 {
    iters.div_ceil(ipc)
}

/// Bytes `pack_iter` appends per iteration: every read operand, plus the
/// 4-byte index of every indirect write.
pub fn expected_packed_bytes_per_iter(spec: &LoopSpec) -> u64 {
    spec.refs
        .iter()
        .map(|r| match (r.mode, &r.pattern) {
            (Mode::Read, _) => u64::from(r.bytes),
            (_, Pattern::Indirect { .. }) => 4,
            _ => 0,
        })
        .sum()
}

/// Post/wait gate evaluations of a DOACROSS stage whose dependence
/// iteration lies in another chunk: the first `lag` iterations of every
/// chunk but the first.
pub fn expected_post_waits(iters: u64, ipc: u64, lag: u64) -> u64 {
    (1..expected_chunks(iters, ipc))
        .map(|c| lag.min(ipc.min(iters - c * ipc)))
        .sum()
}

/// Check one cascaded rep's exact counters against their closed forms;
/// the error names the first counter that is off.
pub fn check_counters(case: &Case, rep: &CascRep) -> Result<(), String> {
    let ipc = case.kind.iters_per_chunk();
    for (_, r) in &rep.runs {
        let chunks = expected_chunks(r.iters, ipc);
        if r.chunks != chunks {
            return Err(format!(
                "chunks {} != ceil({}/{ipc}) = {chunks}",
                r.chunks, r.iters
            ));
        }
        let handoffs: u64 = r.threads.iter().map(|t| t.handoffs).sum();
        if handoffs != chunks - 1 {
            return Err(format!(
                "handoffs {handoffs} != chunks - 1 = {}",
                chunks - 1
            ));
        }
    }
    for p in &rep.planned {
        for s in &p.sub_loops {
            let chunks = expected_chunks(s.iters, ipc);
            if s.chunks != chunks {
                return Err(format!(
                    "sub-loop {} chunks {} != {chunks}",
                    s.index, s.chunks
                ));
            }
            let waits = match s.schedule {
                Schedule::DoAcross { lag } => expected_post_waits(s.iters, ipc, lag),
                _ => 0,
            };
            if s.post_waits != waits {
                return Err(format!(
                    "sub-loop {} post_waits {} != {waits}",
                    s.index, s.post_waits
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_and_post_wait_closed_forms() {
        assert_eq!(expected_chunks(65_536, 1024), 64);
        assert_eq!(expected_chunks(65_537, 1024), 65);
        assert_eq!(expected_chunks(10, 4096), 1);
        // bench_suite's exact counter: 65,536 iterations, 1024 per chunk,
        // lag 2 -> 126 post/waits.
        assert_eq!(expected_post_waits(65_536, 1024, 2), 126);
        // A one-iteration tail chunk can only wait once.
        assert_eq!(expected_post_waits(2049, 1024, 2), 3);
        assert_eq!(expected_post_waits(100, 1024, 2), 0);
    }

    #[test]
    fn packed_bytes_follow_the_spec() {
        // A(i), B(i) read (4 B each) + the 4-byte index of X(IJ(i)).
        let s = Synth::build(64, Variant::Dense, 1);
        assert_eq!(expected_packed_bytes_per_iter(&s.workload.loops[0]), 12);
        // a(i), b(i) read (8 B each); affine writes pack nothing.
        let f = cascade_kernels::fused_stream(64, 1);
        assert_eq!(expected_packed_bytes_per_iter(&f.workload.loops[0]), 16);
    }

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::from_name(k.name()), Some(k));
            assert!(k.why().len() <= 200 && !k.why().contains('\n'));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    /// Every workload at quick size: built from a seed, one pair of reps,
    /// exact counters on their closed forms, twins bitwise equal.
    #[test]
    fn every_workload_runs_clean_at_quick_size() {
        for kind in Kind::ALL {
            let mut rec = Recorder::disabled();
            let mut case = Case::build(kind, 3, true, &mut rec);
            assert!(case.twins_agree(), "{}: twins differ at birth", kind.name());
            case.seq_rep(&mut rec);
            let rep = case
                .casc_rep(&Observe::default(), &mut rec)
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert!(!rep.degraded(), "{}: degraded", kind.name());
            check_counters(&case, &rep).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert!(case.twins_agree(), "{}: twins diverged", kind.name());
            assert!(case.working_set_bytes() > 0 && case.iters_per_rep() > 0);
        }
    }

    #[test]
    fn inputs_follow_the_seed() {
        let mut rec = Recorder::disabled();
        let mut sums = |seed| Case::build(Kind::ZooPrefetch, seed, true, &mut rec).checksums();
        let (a, b, c) = (sums(3), sums(3), sums(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
