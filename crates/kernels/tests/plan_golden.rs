//! Golden transformation plans for the kernel suite: the full mode
//! matrix (cascade × helper-lag × journalable × fissionable ×
//! DOACROSS-lag × parallel) plus the fission
//! partition shape, pinned per kernel so a regression in any analyzer
//! layer — footprints, lag computation, dependence edges, SCC
//! condensation, or mode threading — fails loudly in one table.
//!
//! Every pinned plan is also validated bitwise against the dynamic
//! replay oracle: the fissioned order, every per-sub-loop schedule, and
//! the whole-loop claims must reproduce the sequential model state
//! exactly.

use cascade_analyze::oracle::check_plan;
use cascade_analyze::plan::{plan_workload, Schedule};
use cascade_trace::DiagCode;

/// One row of the pinned mode matrix:
/// (kernel, cascade, helper lag, journalable, [(sub-loop statements,
/// schedule)], whole-loop min carried lag, parallel, plan diag codes).
type GoldenRow = (
    &'static str,
    bool,
    Option<u64>,
    bool,
    &'static [(&'static [usize], Schedule)],
    Option<u64>,
    bool,
    &'static [DiagCode],
);

const GOLDEN: &[GoldenRow] = &[
    (
        "triangular_solve",
        true,
        Some(1),
        true,
        &[(&[0], Schedule::Sequential)],
        Some(1),
        false,
        &[],
    ),
    (
        "pointer_chase",
        true,
        None,
        true,
        &[(&[0], Schedule::Parallel)],
        None,
        true,
        &[DiagCode::PlanParallel],
    ),
    (
        "iir_recurrence",
        true,
        Some(1),
        true,
        &[(&[0], Schedule::Sequential)],
        Some(1),
        false,
        &[],
    ),
    (
        "fused_stream",
        true,
        Some(1),
        true,
        // The recurrence residue must run first; the independent store
        // fissions off as a DOALL sub-loop.
        &[(&[0], Schedule::Sequential), (&[1], Schedule::Parallel)],
        Some(1),
        false,
        &[DiagCode::FissionLegal, DiagCode::PlanParallel],
    ),
    (
        "histogram",
        true,
        None,
        true,
        &[(&[0], Schedule::Sequential)],
        Some(1),
        false,
        &[],
    ),
    (
        "seq_spmv",
        true,
        None,
        true,
        &[(&[0], Schedule::Sequential)],
        Some(1),
        false,
        &[],
    ),
];

#[test]
fn kernel_mode_matrix_matches_golden() {
    let kernels = cascade_kernels::suite(4096, 42);
    assert_eq!(kernels.len(), GOLDEN.len());
    for (k, (name, cascade, hlag, journ, partition, dlag, par, codes)) in kernels.iter().zip(GOLDEN)
    {
        assert_eq!(k.name, *name);
        let plans = plan_workload(&k.workload);
        let p = &plans[0];
        assert!(!p.opaque, "{name}: plan must not be opaque");
        assert_eq!(p.modes.cascade, *cascade, "{name}: cascade mode drifted");
        assert_eq!(p.modes.helper_lag, *hlag, "{name}: helper lag drifted");
        assert_eq!(
            p.modes.journalable, *journ,
            "{name}: journalability drifted"
        );
        assert_eq!(
            p.modes.fissionable,
            partition.len() >= 2,
            "{name}: fissionability drifted"
        );
        assert_eq!(
            p.modes.sub_loops,
            partition.len(),
            "{name}: sub-loop count drifted"
        );
        assert_eq!(
            p.modes.doacross_lag, *dlag,
            "{name}: whole-loop carried lag drifted"
        );
        assert_eq!(p.modes.parallel, *par, "{name}: DOALL verdict drifted");
        assert_eq!(
            p.partition.len(),
            partition.len(),
            "{name}: partition shape drifted"
        );
        for (sub, (stmts, sched)) in p.partition.iter().zip(*partition) {
            assert_eq!(&sub.statements, stmts, "{name}: sub-loop members drifted");
            assert_eq!(sub.schedule, *sched, "{name}: schedule drifted");
        }
        assert_eq!(p.codes(), *codes, "{name}: plan diagnostics drifted");
    }
}

#[test]
fn every_kernel_plan_validates_against_the_replay_oracle() {
    for k in cascade_kernels::suite(4096, 42) {
        let w = &k.workload;
        let plans = plan_workload(w);
        for (spec, plan) in w.loops.iter().zip(&plans) {
            let v = check_plan(w, spec, plan, 0x5eed);
            assert!(
                v.is_empty(),
                "{}: plan contradicted by replay: {:?}",
                k.name,
                v
            );
        }
    }
}

#[test]
fn fused_stream_rejects_the_swapped_partition() {
    // The one fissionable kernel in the zoo: running the consumer
    // sub-loop before the recurrence must be rejected statically (AN013)
    // and caught dynamically by the replay model.
    let k = cascade_kernels::fused_stream(1024, 11);
    let w = &k.workload;
    let mut plan = plan_workload(w).remove(0);
    assert!(plan.modes.fissionable);
    let err = plan
        .check_partition(&[
            plan.partition[1].statements.clone(),
            plan.partition[0].statements.clone(),
        ])
        .expect_err("swapped partition must be rejected");
    assert!(err.iter().all(|d| d.code == DiagCode::IllegalPartition));
    plan.partition.swap(0, 1);
    let v = check_plan(w, &w.loops[0], &plan, 3);
    assert!(
        v.iter()
            .any(|v| v.detail.contains("fissioned sub-loop order")),
        "replay must catch the illegal order: {v:?}"
    );
}
