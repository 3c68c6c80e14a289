//! The metric registry: every name the benchmark prints, with its unit,
//! its direction, and what kind of number it is. `BENCHMARK.json` lists
//! exactly these (a test compares the two).

use std::collections::BTreeMap;

use crate::json::{num, obj, str, Json};
use crate::stats::Summary;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How repeatable a metric is by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Wall-clock or a ratio of wall-clocks: compared against a bound
    /// (end to end) or read for attribution only (per layer).
    Timing,
    /// A count that two runs on the same seed must reproduce exactly.
    ExactPerSeed,
    /// A count that must not depend on the seed either.
    ExactAnySeed,
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name, as printed and as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
    /// Repeatability class.
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        kind: Kind::Timing,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, kind: Kind) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        kind,
    }
}

use Better::{Higher, Lower};
use Kind::{ExactAnySeed, ExactPerSeed, Timing};

/// What a user of the system sees; reported by the untraced run.
///
/// The issue asked for 10% on the two timings. On the 2-vCPU shared VM
/// this was written on, ten runs of one build spread (interquartile, as a
/// share of the median) between 1.3% and 21% depending on what the
/// neighbours were doing: `seq_ms` flips between two speeds a quarter
/// apart within a run, and whole minutes drift by a third. Longer reps
/// and a longer budget (the whole time allowance is spent) did not
/// narrow that, so the timings carry the widest bound the contract
/// allows. `peak_rss_mb` repeats to 0.1% except on `planned_mix`, whose
/// resident set lands on 279, 285 or 307 MB from run to run; 25% is the
/// smallest bound that keeps that spread under a third of it. The
/// measured spreads are in `README.md`.
pub const END_TO_END: [Def; 4] = [
    e2e("casc_ms", "ms", 0.25),
    e2e("seq_ms", "ms", 0.25),
    e2e("setup_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.25),
];

/// One number per cost inside a layer; reported by the traced run. A
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: [Def; 59] = [
    // cascade_rt::interp, from the chunk-by-chunk single-thread drill.
    layer("interp.execute_ns_per_iter", "ns", Lower, Timing),
    layer("interp.execute_packed_ns_per_iter", "ns", Lower, Timing),
    layer("interp.pack_ns_per_iter", "ns", Lower, Timing),
    layer("interp.pack_mb_per_s", "MB/s", Higher, Timing),
    layer("interp.packed_bytes_per_iter", "B", Lower, ExactAnySeed),
    layer("interp.prefetch_ns_per_iter", "ns", Lower, Timing),
    layer("interp.prefetch_bytes_per_iter", "B", Lower, ExactAnySeed),
    layer("interp.journal_capture_ns_per_chunk", "ns", Lower, Timing),
    layer("interp.journal_bytes_per_chunk", "B", Lower, ExactPerSeed),
    layer("interp.replay_ns_per_chunk", "ns", Lower, Timing),
    layer("interp.scrub_ms", "ms", Lower, Timing),
    layer("ref.native_ns_per_iter", "ns", Lower, Timing),
    layer("derived.interp_tax", "x", Lower, Timing),
    // cascade_rt::token.
    layer("token.handoff_ns", "ns", Lower, Timing),
    layer("token.handoff_p99_ns", "ns", Lower, Timing),
    layer("token.uncontended_ns", "ns", Lower, Timing),
    // cascade_rt::runner, from the RunStats of untraced reps.
    layer("runner.chunks", "count", Lower, ExactAnySeed),
    layer("runner.handoffs", "count", Lower, ExactAnySeed),
    layer("runner.exec_ns", "ns", Lower, Timing),
    layer("runner.helper_ns", "ns", Lower, Timing),
    layer("runner.spin_ns", "ns", Lower, Timing),
    layer("runner.other_ns", "ns", Lower, Timing),
    layer("runner.helper_complete_ratio", "ratio", Higher, Timing),
    layer("runner.helper_coverage", "ratio", Higher, Timing),
    layer("runner.jump_outs", "count", Lower, Timing),
    layer("runner.horizon_stalls", "count", Lower, Timing),
    layer("runner.handoff_mean_ns", "ns", Lower, Timing),
    layer("runner.handoff_max_ns", "ns", Lower, Timing),
    layer("runner.chunk_exec_p50_ns", "ns", Lower, Timing),
    layer("runner.per_chunk_overhead_ns", "ns", Lower, Timing),
    layer("runner.fixed_ns", "ns", Lower, Timing),
    // cascade_rt::sched, from the PlannedStats of untraced reps.
    layer("sched.sub_loops", "count", Lower, ExactAnySeed),
    layer("sched.post_waits", "count", Lower, ExactAnySeed),
    layer("sched.sub_chunks", "count", Lower, ExactAnySeed),
    layer("sched.post_wait_stall_ns", "ns", Lower, Timing),
    layer("sched.doall_ms", "ms", Lower, Timing),
    layer("sched.doacross_ms", "ms", Lower, Timing),
    layer("sched.residue_ms", "ms", Lower, Timing),
    // cascade_rt::govern verification and the undo journal.
    layer("verify.replayed_chunks", "count", Lower, ExactAnySeed),
    layer("verify.scrubs", "count", Lower, ExactAnySeed),
    layer("verify.ns_per_chunk", "ns", Lower, Timing),
    layer("journal.ns_per_chunk", "ns", Lower, Timing),
    layer("journal.bytes", "B", Lower, ExactPerSeed),
    // cascade_rt::ckpt, on a fixed 16 MiB program (no workload checkpoints).
    layer("ckpt.base_ms", "ms", Lower, Timing),
    layer("ckpt.publish_ms_per_delta", "ms", Lower, Timing),
    layer("ckpt.bytes_per_delta", "B", Lower, ExactAnySeed),
    layer("ckpt.load_ms", "ms", Lower, Timing),
    // Generators and cascade_analyze.
    layer("gen.build_ms", "ms", Lower, Timing),
    layer("analysis.program_new_ms", "ms", Lower, Timing),
    layer("analysis.plan_loop_ms", "ms", Lower, Timing),
    // cascade_core + cascade_mem: simulated Pentium Pro time, not this host's.
    layer("sim.pred_speedup", "x", Higher, ExactPerSeed),
    layer("sim.host_ms", "ms", Lower, Timing),
    layer("sim.host_ns_per_ref", "ns", Lower, Timing),
    // The traced run itself.
    layer("trace.spans", "count", Lower, Timing),
    layer("trace.top_level_cover_pct", "%", Higher, Timing),
    layer("trace.overhead_pct", "%", Lower, Timing),
    layer("trace.ring_overhead_pct", "%", Lower, Timing),
    // The traced run's own medians and their ratio (never gated: an
    // interpreter gain lowers both and can lower the ratio).
    layer("derived.speedup", "x", Higher, Timing),
    layer("derived.speedup_base_seq_ms", "ms", Lower, Timing),
];

/// A measured value with the distribution behind it, if it had one.
#[derive(Debug, Clone)]
pub struct Value {
    /// The reported number (a median when `dist` is set).
    pub value: f64,
    /// Sample count, quartiles and top percentile.
    pub dist: Option<Summary>,
}

/// The metrics of one run, checked against a registry table on the way in
/// and written in registry order on the way out.
pub struct Metrics {
    defs: &'static [Def],
    values: BTreeMap<&'static str, Value>,
}

impl Metrics {
    /// An empty set over `defs`.
    pub fn new(defs: &'static [Def]) -> Metrics {
        Metrics {
            defs,
            values: BTreeMap::new(),
        }
    }

    fn def(&self, name: &str) -> &'static Def {
        self.defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"))
    }

    /// Record a single number.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = self.def(name);
        self.values.insert(def.name, Value { value, dist: None });
    }

    /// Record the median of `samples` with its distribution; no samples
    /// records nothing (the metric then reads 0).
    pub fn set_samples(&mut self, name: &str, samples: &[f64]) {
        let def = self.def(name);
        if let Some(dist) = Summary::of(samples) {
            self.values.insert(
                def.name,
                Value {
                    value: dist.median,
                    dist: Some(dist),
                },
            );
        }
    }

    /// The value of `name`; 0 if never recorded.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |v| v.value)
    }

    /// Every registered metric in registry order, unrecorded ones as 0.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Def, Value)> + '_ {
        self.defs.iter().map(|d| {
            let v = self.values.get(d.name).cloned().unwrap_or(Value {
                value: 0.0,
                dist: None,
            });
            (d, v)
        })
    }

    /// `{"name": {"value": v, "unit": u}, ...}`: the shape of the result
    /// line.
    pub fn to_result_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(d, v)| {
                    (
                        d.name.to_string(),
                        obj(vec![("value", num(v.value)), ("unit", str(d.unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The same with sample count, quartiles and top percentile where a
    /// metric has them: the shape of the record files.
    pub fn to_record_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(d, v)| {
                    let mut m = vec![
                        ("value", num(v.value)),
                        ("unit", str(d.unit)),
                        ("better", str(d.better.as_str())),
                    ];
                    if let Some(s) = &v.dist {
                        m.push(("n", num(s.n as f64)));
                        m.push(("min", num(s.min)));
                        m.push(("q1", num(s.q1)));
                        m.push(("q3", num(s.q3)));
                        m.push(("max", num(s.max)));
                        if let (Some(p), Some(pv)) = (s.top_pct, s.top_value) {
                            m.push(("top_pct", num(p)));
                            m.push(("top_value", num(pv)));
                        }
                    }
                    (d.name.to_string(), obj(m))
                })
                .collect(),
        )
    }

    /// One line per metric: name, value, unit, and the distribution.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (d, v) in self.iter() {
            out.push_str(&format!(
                "  {:<36} {:>16} {:<6}",
                d.name,
                fmt_value(v.value),
                d.unit
            ));
            if let Some(s) = &v.dist {
                out.push_str(&format!(
                    " n={} q1={} q3={} iqr={:.1}%",
                    s.n,
                    fmt_value(s.q1),
                    fmt_value(s.q3),
                    s.iqr_share() * 100.0
                ));
                if let (Some(p), Some(pv)) = (s.top_pct, s.top_value) {
                    out.push_str(&format!(" p{p}={}", fmt_value(pv)));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Four significant decimals for small numbers, none for large counts.
pub fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.fract() == 0.0 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, write};
    use crate::workloads;

    fn name_ok(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name, "_.-", 64), "name {}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name_ok(d.unit, "_/%.-", 16), "unit of {}", d.name);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        for d in &END_TO_END {
            let b = d.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it honest.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Json> {
            match doc.get(key) {
                Some(Json::Arr(a)) => a.clone(),
                _ => panic!("{key} is not an array"),
            }
        };
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).map(str::to_string);

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(field(j, "name").as_deref(), Some(d.name));
                assert_eq!(field(j, "unit").as_deref(), Some(d.unit), "{}", d.name);
                assert_eq!(
                    field(j, "better").as_deref(),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
        let names: Vec<_> = list("workloads")
            .iter()
            .map(|w| field(w, "name").unwrap())
            .collect();
        let ours: Vec<_> = workloads::Kind::ALL
            .iter()
            .map(|k| k.name().to_string())
            .collect();
        assert_eq!(names, ours);
        for (w, k) in list("workloads").iter().zip(workloads::Kind::ALL) {
            assert_eq!(field(w, "why").as_deref(), Some(k.why()));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS as f64)
        );
    }

    #[test]
    fn unrecorded_metrics_read_zero_and_unregistered_names_are_bugs() {
        let mut m = Metrics::new(&END_TO_END);
        m.set_samples("seq_ms", &[3.0, 1.0, 2.0]);
        m.set("peak_rss_mb", 12.5);
        m.set_samples("casc_ms", &[]);
        assert_eq!(m.get("seq_ms"), 2.0);
        assert_eq!(m.get("casc_ms"), 0.0);
        let line = write(&m.to_result_json());
        assert_eq!(
            line,
            r#"{"casc_ms": {"value": 0, "unit": "ms"}, "seq_ms": {"value": 2, "unit": "ms"}, "setup_s": {"value": 0, "unit": "s"}, "peak_rss_mb": {"value": 12.5, "unit": "MB"}}"#
        );
        let rec = m.to_record_json();
        assert_eq!(
            rec.get("seq_ms").unwrap().get("n").and_then(Json::as_f64),
            Some(3.0)
        );
        assert!(m.to_text().contains("seq_ms"));
        let caught = std::panic::catch_unwind(move || m.set("nope", 1.0));
        assert!(caught.is_err());
    }

    #[test]
    fn values_print_compactly() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(65_536.0), "65536");
        assert_eq!(fmt_value(1.23456), "1.2346");
        assert_eq!(fmt_value(123.456), "123.5");
        assert_eq!(fmt_value(12_345_678.9), "12345679");
    }
}
