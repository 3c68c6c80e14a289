//! One workload, one process: the untraced run that produces the
//! end-to-end metrics, and the traced run that produces the per-layer
//! ones.
//!
//! Both are a closed loop with one client: after one untimed warm-up pair,
//! `sequential rep, cascaded rep` alternate until the wall budget is
//! spent. The sequential rep runs on one twin and the cascaded rep on the
//! other, so after any whole number of pairs the twins' arenas must be
//! bitwise equal; an `Err`, a `degraded` rep, an exact counter off its
//! closed form or a checksum mismatch is a failure.

use std::path::Path;
use std::time::{Duration, Instant};

use cascade_core::PhaseKind;
use cascade_rt::Observe;

use crate::host::{self, Host};
use crate::json::{arr, num, obj, str, Json};
use crate::layers::{self, RepStats};
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::span::Recorder;
use crate::stats::median_of;
use crate::workloads::{check_counters, CascRep, Case, Kind, NTHREADS};

/// Times the untraced run builds its inputs; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Fewest timed pairs of any phase, however short the budget.
const MIN_PAIRS: usize = 3;

/// How the estimator is described in every record.
const ESTIMATOR: &str = "median over timed reps of one run; quartiles by the exclusive method; \
     top percentile is the highest with >= 10 samples beyond it";

/// What was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// The workload.
    pub kind: Kind,
    /// Seed of every generator.
    pub seed: u64,
    /// Wall budget of the timed loop.
    pub seconds: u64,
    /// Reduced sizes.
    pub quick: bool,
}

/// What a run produced.
pub struct Outcome {
    /// The metrics, over `END_TO_END` or `PER_LAYER`.
    pub metrics: Metrics,
    /// Timed cascaded reps.
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Everything that went wrong, rep failures included.
    pub errors: Vec<String>,
    /// The full record (host, parameters, distributions).
    pub record: Json,
}

impl Outcome {
    /// No failed rep and no failed check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> Json {
        obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", self.metrics.to_result_json()),
        ])
    }
}

/// The timed pairs of one phase.
#[derive(Default)]
struct Pairs {
    seq_ms: Vec<f64>,
    casc_ms: Vec<f64>,
    failed: u64,
    errors: Vec<String>,
}

impl Pairs {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        // The first few say what is wrong; thousands would say no more.
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One cascaded rep with its checks; `None` (and a counted failure) when
/// the rep errored, degraded, or missed a closed form.
fn checked_casc_rep(
    case: &Case,
    observe: &Observe,
    rec: &mut Recorder,
    pairs: &mut Pairs,
) -> Option<CascRep> {
    match case.casc_rep(observe, rec) {
        Err(e) => pairs.fail(format!("cascaded rep failed: {e}")),
        Ok(rep) if rep.degraded() => {
            pairs.fail("cascaded rep degraded to sequential salvage".into())
        }
        Ok(rep) => match check_counters(case, &rep) {
            Err(e) => pairs.fail(format!("exact counter off its closed form: {e}")),
            Ok(()) => {
                pairs.casc_ms.push(ms(rep.wall));
                return Some(rep);
            }
        },
    }
    None
}

/// Alternate sequential and cascaded reps for `budget` (at least
/// [`MIN_PAIRS`] pairs), handing every clean cascaded rep to `each`.
fn timed_pairs(
    case: &Case,
    budget: Duration,
    observe: &Observe,
    rec: &mut Recorder,
    mut each: impl FnMut(&mut Recorder, CascRep),
) -> Pairs {
    let mut pairs = Pairs::default();
    let start = Instant::now();
    while pairs.seq_ms.len() < MIN_PAIRS || start.elapsed() < budget {
        pairs.seq_ms.push(ms(case.seq_rep(rec)));
        if let Some(rep) = checked_casc_rep(case, observe, rec, &mut pairs) {
            each(rec, rep);
        }
    }
    pairs
}

/// The untimed pair that fills caches and faults pages in, then the first
/// twin comparison.
fn warm_up(case: &mut Case, rec: &mut Recorder, errors: &mut Vec<String>) {
    let s = rec.enter("warmup");
    case.seq_rep(rec);
    let mut pairs = Pairs::default();
    checked_casc_rep(case, &Observe::default(), rec, &mut pairs);
    errors.extend(pairs.errors.into_iter().map(|e| format!("warm-up: {e}")));
    if !case.twins_agree() {
        errors.push("twins are not bitwise equal after the warm-up pair".into());
    }
    rec.exit(s);
}

/// Parameters and host, the part of a record both runs share.
fn record_head(req: &Request, host: &Host, case: &Case, trace: bool) -> Vec<(&'static str, Json)> {
    let ws = case.working_set_bytes();
    vec![
        ("workload", str(req.kind.name())),
        ("why", str(req.kind.why())),
        ("seed", num(req.seed as f64)),
        ("trace", num(f64::from(u8::from(trace)))),
        ("quick", Json::Bool(req.quick)),
        ("wall_budget_s", num(req.seconds as f64)),
        ("estimator", str(ESTIMATOR)),
        ("threads", num(NTHREADS as f64)),
        ("oversubscribed", Json::Bool(host.nproc < NTHREADS)),
        ("iters_per_chunk", num(req.kind.iters_per_chunk() as f64)),
        ("iters_per_rep", num(case.iters_per_rep() as f64)),
        ("working_set_bytes", num(ws as f64)),
        (
            "working_set_over_cache",
            arr(host
                .caches
                .iter()
                .map(|c| {
                    obj(vec![
                        ("level", str(&c.label)),
                        ("ratio", num(ws as f64 / c.bytes as f64)),
                    ])
                })
                .collect()),
        ),
        ("host", host.to_json()),
    ]
}

fn finish(
    mut head: Vec<(&'static str, Json)>,
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
) -> Outcome {
    let mut out = Outcome {
        metrics,
        attempted,
        failed,
        errors,
        record: Json::Null,
    };
    head.push(("reps", num(attempted as f64)));
    head.push(("failed_reps", num(failed as f64)));
    head.push(("correct", Json::Bool(out.correct())));
    head.push(("errors", arr(out.errors.iter().map(|e| str(e)).collect())));
    head.push(("metrics", out.metrics.to_record_json()));
    out.record = obj(head);
    out
}

/// The untraced run: set-up (several times, median), warm-up, timed
/// pairs, final twin comparison. Produces the end-to-end metrics.
pub fn untraced(req: &Request, host: &Host) -> Outcome {
    let mut off = Recorder::disabled();
    let mut setups = Vec::new();
    let mut case = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous build first: two at once would double the
        // peak resident set the run reports.
        drop(case.take());
        let built = Case::build(req.kind, req.seed, req.quick, &mut off);
        setups.push(built.setup.total_s);
        case = Some(built);
    }
    let mut case = case.expect("SETUP_REPEATS is at least one");

    let mut errors = Vec::new();
    warm_up(&mut case, &mut off, &mut errors);
    let pairs = timed_pairs(
        &case,
        Duration::from_secs(req.seconds),
        &Observe::default(),
        &mut off,
        |_, _| {},
    );
    if !case.twins_agree() {
        errors.push("twins are not bitwise equal after the timed reps".into());
    }
    errors.extend(pairs.errors.iter().cloned());

    let mut m = Metrics::new(&END_TO_END);
    m.set_samples("casc_ms", &pairs.casc_ms);
    m.set_samples("seq_ms", &pairs.seq_ms);
    m.set_samples("setup_s", &setups);
    m.set("peak_rss_mb", host::peak_rss_mb());

    let mut head = record_head(req, host, &case, false);
    let (seq, casc) = (m.get("seq_ms"), m.get("casc_ms"));
    if casc > 0.0 {
        head.push((
            "derived",
            obj(vec![
                ("speedup", num(seq / casc)),
                ("seq_ms", num(seq)),
                ("casc_ms", num(casc)),
            ]),
        ));
    }
    // The rep series in run order, for whoever asks why a median moved.
    let series = |v: &[f64]| arr(v.iter().map(|x| num(*x)).collect());
    head.push((
        "samples",
        obj(vec![
            ("seq_ms", series(&pairs.seq_ms)),
            ("casc_ms", series(&pairs.casc_ms)),
            ("setup_s", series(&setups)),
        ]),
    ));
    let attempted = pairs.casc_ms.len() as u64 + pairs.failed;
    finish(head, m, attempted, pairs.failed, errors)
}

/// Share of a traced run's budget each rep phase gets; the drills, the
/// micro-benchmarks and the simulator take what they take (bounded work,
/// a few seconds at full size).
const PLAIN_SHARE: f64 = 0.40;
const SPANNED_SHARE: f64 = 0.15;
const RING_SHARE: f64 = 0.15;

/// Phase intervals imported per worker and run; `dense_handoff`'s ring
/// holds 65,536 a worker, which is a timeline nobody scrolls.
const RING_IMPORT_EVENTS: usize = 8192;

fn worker_span_name(kind: PhaseKind) -> &'static str {
    match kind {
        PhaseKind::Helper => "worker.helper",
        PhaseKind::Spin => "worker.spin",
        PhaseKind::Execute => "worker.execute",
        PhaseKind::Retry => "worker.retry",
        PhaseKind::Other => "worker.other",
    }
}

/// The traced run: every call into a layer is wrapped in a span, and the
/// per-layer metrics are read off drills, micro-benchmarks and the stats
/// the runtime returns. Writes `<out_dir>/<workload>.trace.json`.
pub fn traced(req: &Request, host: &Host, out_dir: &Path) -> Outcome {
    let budget = |share: f64| Duration::from_secs_f64(req.seconds as f64 * share);
    let mut rec = Recorder::new(&format!("{}-seed{}", req.kind.name(), req.seed));
    let mut m = Metrics::new(&PER_LAYER);
    let mut errors = Vec::new();

    let s = rec.enter("setup");
    let mut case = Case::build(req.kind, req.seed, req.quick, &mut rec);
    rec.exit(s);
    m.set("gen.build_ms", case.setup.gen_ms);
    m.set("analysis.program_new_ms", case.setup.program_new_ms);
    m.set("analysis.plan_loop_ms", case.setup.plan_loop_ms);

    warm_up(&mut case, &mut rec, &mut errors);

    // Plain pairs: no span inside a rep, no event ring. Their medians are
    // the base the two overheads are measured against, and their
    // RunStats / PlannedStats feed runner.*, sched.*, verify.*, journal.*.
    let mut stats = RepStats::default();
    let s = rec.enter("reps.plain");
    let plain = timed_pairs(
        &case,
        budget(PLAIN_SHARE),
        &Observe::default(),
        &mut Recorder::disabled(),
        |_, rep| stats.add(&rep),
    );
    rec.exit(s);
    errors.extend(stats.record(&mut m));

    // Spanned pairs: the same calls, each wrapped in a span.
    let s = rec.enter("reps.spanned");
    let spanned = timed_pairs(
        &case,
        budget(SPANNED_SHARE),
        &Observe::default(),
        &mut rec,
        |_, _| {},
    );
    rec.exit(s);

    // Ring pairs: the runtime's own event ring on. Every rep's Execute
    // intervals feed the per-chunk execution median; the first rep's
    // intervals are also imported under the call that produced them.
    let mut exec_ns = Vec::new();
    let mut imported = false;
    let s = rec.enter("reps.ring");
    let ring = timed_pairs(
        &case,
        budget(RING_SHARE),
        &Observe::with_events(),
        &mut rec,
        |rec, rep| {
            for (span, run) in &rep.runs {
                for (t, thread) in run.threads.iter().enumerate() {
                    for (i, e) in thread.events.iter().enumerate() {
                        if e.kind == PhaseKind::Execute {
                            exec_ns.push((e.end_ns - e.start_ns) as f64);
                        }
                        if !imported && i < RING_IMPORT_EVENTS {
                            rec.import(
                                *span,
                                worker_span_name(e.kind),
                                1 + t as u32,
                                e.start_ns,
                                e.end_ns,
                            );
                        }
                    }
                }
            }
            imported = true;
        },
    );
    rec.exit(s);
    m.set_samples("runner.chunk_exec_p50_ns", &exec_ns);

    let base = median_of(&plain.casc_ms);
    if base > 0.0 {
        let over = |p: &Pairs| (median_of(&p.casc_ms) - base) / base * 100.0;
        m.set("trace.overhead_pct", over(&spanned));
        m.set("trace.ring_overhead_pct", over(&ring));
        m.set("derived.speedup", median_of(&plain.seq_ms) / base);
        m.set("derived.speedup_base_seq_ms", median_of(&plain.seq_ms));
    }
    if !rec.scope("check.twins", || case.twins_agree()) {
        errors.push("twins are not bitwise equal after the timed reps".into());
    }

    errors.extend(layers::interp_drills(&mut case, &mut rec, &mut m));
    layers::native_reference(&mut case, &mut rec, &mut m);
    layers::token_micro(&mut rec, &mut m, host.nproc);
    layers::runner_fixed(&mut rec, &mut m, req.seed);
    let ckpt_dir = out_dir.join(format!("{}.ckpt", req.kind.name()));
    errors.extend(layers::ckpt_micro(&mut rec, &mut m, req.seed, &ckpt_dir));
    layers::sim_prediction(req.kind, &mut rec, &mut m, req.seed, req.quick);

    m.set("trace.top_level_cover_pct", rec.top_level_cover() * 100.0);
    m.set("trace.spans", rec.spans().len() as f64);
    let trace_path = out_dir.join(format!("{}.trace.json", req.kind.name()));
    if let Err(e) = std::fs::write(&trace_path, crate::json::write(&rec.to_chrome_trace())) {
        errors.push(format!("cannot write {}: {e}", trace_path.display()));
    }

    let phases = [&plain, &spanned, &ring];
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let attempted = phases.iter().map(|p| p.casc_ms.len() as u64).sum::<u64>() + failed;
    for p in phases {
        errors.extend(p.errors.iter().cloned());
    }

    let mut head = record_head(req, host, &case, true);
    head.push(("trace_file", str(&trace_path.display().to_string())));
    head.push((
        "sim_scale",
        str(&format!(
            "simulated Pentium Pro, 2 processors, 64 KB chunks; sparse loop n={}, PARMVR scale {}",
            layers::SIM_SYNTH_N,
            layers::SIM_PARMVR_SCALE
        )),
    ));
    head.push((
        "self_time_by_span",
        Json::Obj(
            rec.by_name()
                .into_iter()
                .map(|(name, t)| {
                    (
                        name.to_string(),
                        obj(vec![
                            ("count", num(t.count as f64)),
                            ("total_ms", num(t.total_ns as f64 / 1e6)),
                            ("self_ms", num(t.self_ns as f64 / 1e6)),
                        ]),
                    )
                })
                .collect(),
        ),
    ));
    finish(head, m, attempted, failed, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, write};

    fn request(kind: Kind) -> Request {
        Request {
            kind,
            seed: 4,
            seconds: 0,
            quick: true,
        }
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let out = untraced(&request(Kind::DenseHandoff), &Host::probe());
        assert!(out.correct(), "{:?}", out.errors);
        assert_eq!(out.attempted, MIN_PAIRS as u64);
        let line = parse(&write(&out.result_line())).unwrap();
        let keys: Vec<_> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        for d in &END_TO_END {
            let v = line.get("metrics").unwrap().get(d.name).unwrap();
            assert!(
                v.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{}",
                d.name
            );
            assert_eq!(v.get("unit").and_then(Json::as_str), Some(d.unit));
        }
        assert_eq!(out.record.get("seed").and_then(Json::as_f64), Some(4.0));
        assert!(out.record.get("derived").unwrap().get("speedup").is_some());
    }

    #[test]
    fn traced_run_reports_every_layer_and_writes_a_covering_trace() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = traced(&request(Kind::Wave5Seq15), &Host::probe(), &dir);
        assert!(out.correct(), "{:?}", out.errors);
        let line = out.result_line();
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        for name in [
            "runner.chunks",
            "sim.pred_speedup",
            "derived.speedup",
            "runner.chunk_exec_p50_ns",
        ] {
            assert!(out.metrics.get(name) > 0.0, "{name}");
        }
        let cover = out.metrics.get("trace.top_level_cover_pct");
        assert!(cover >= 95.0, "top-level spans cover {cover}%");
        let trace = std::fs::read_to_string(dir.join("wave5_seq15.trace.json")).unwrap();
        let Some(Json::Arr(events)) = parse(&trace).unwrap().get("traceEvents").cloned() else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len() as f64, out.metrics.get("trace.spans"));
        for name in [
            "rt.try_run_governed_sequence",
            "rt.run_sequential",
            "worker.execute",
            "interp.pack_iter",
            "ckpt.append_delta",
        ] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(Json::as_str) == Some(name)),
                "no {name} span"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
