//! The repository's benchmark: real-thread cascaded execution against
//! `run_sequential` on six workloads, each layer measured from outside.
//! See `README.md` beside this package for the metric glossary.
//!
//! ```text
//! run.sh                                  every workload: untraced run, traced run, table
//! run.sh --quick                          the same at reduced sizes, ~2 s per run
//! run.sh --check-repeat                   two sets on one seed + one on the next, compared
//! run.sh --workload W --seed N --seconds S --trace 0|1
//!                                         one run; the last stdout line is the result JSON
//! ```

mod host;
mod json;
mod layers;
mod metrics;
mod run;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use host::Host;
use json::{arr, num, obj, str, Json};
use metrics::{fmt_value, Kind as MetricKind, END_TO_END, PER_LAYER};
use run::Request;
use workloads::Kind;

/// Wall budget of an untraced run, the same on every commit;
/// `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 15;
/// Wall budget of the suite's traced runs.
const TRACED_SECONDS: u64 = 5;
/// Both budgets under `--quick`.
const QUICK_SECONDS: u64 = 2;
/// Seed when none is given.
const DEFAULT_SEED: u64 = 9;

/// Parsed command line.
struct Cli {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    check_repeat: bool,
}

fn usage() -> String {
    format!(
        "usage: run.sh [--workload {}] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--check-repeat]",
        Kind::ALL.map(Kind::name).join("|")
    )
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        check_repeat: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Kind::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?
            }
            "--seconds" => {
                let s: u64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number".to_string())?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => cli.quick = true,
            "--check-repeat" => cli.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Where records and traces go: `$CASCADE_BENCH_OUT` (run.sh sets it to
/// `out/` beside itself), else `benchmark/out` under the current directory.
fn out_dir() -> PathBuf {
    std::env::var_os("CASCADE_BENCH_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn write_file(path: &Path, j: &Json) -> Result<(), String> {
    std::fs::write(path, json::write(j) + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn record_path(dir: &Path, kind: Kind, trace: bool) -> PathBuf {
    dir.join(format!(
        "{}.{}.json",
        kind.name(),
        if trace { "layers" } else { "e2e" }
    ))
}

/// One workload in this process. Prints every metric by name, then the
/// result line.
fn single(cli: &Cli, kind: Kind) -> Result<bool, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let host = Host::probe();
    let req = Request {
        kind,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick {
            QUICK_SECONDS
        } else {
            RUN_SECONDS
        }),
        quick: cli.quick,
    };
    println!(
        "{} seed {} | {} threads on {} CPUs{} | {} | budget {} s | {}",
        kind.name(),
        req.seed,
        workloads::NTHREADS,
        host.nproc,
        if host.nproc < workloads::NTHREADS {
            " (oversubscribed)"
        } else {
            ""
        },
        host.caches_text(),
        req.seconds,
        if cli.trace {
            "traced run, per-layer metrics"
        } else {
            "untraced run, end-to-end metrics"
        },
    );
    let out = if cli.trace {
        run::traced(&req, &host, &dir)
    } else {
        run::untraced(&req, &host)
    };
    print!("{}", out.metrics.to_text());
    if let Some(d) = out.record.get("derived") {
        let g = |k| d.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "  derived.speedup {:.4} x (seq_ms {:.4} / casc_ms {:.4})",
            g("speedup"),
            g("seq_ms"),
            g("casc_ms")
        );
    }
    println!("  reps {} failed_reps {}", out.attempted, out.failed);
    for e in &out.errors {
        println!("  FAILED: {e}");
    }
    write_file(&record_path(&dir, kind, cli.trace), &out.record)?;
    println!("{}", json::write(&out.result_line()));
    Ok(out.correct())
}

/// Run one workload as a child process (so its peak RSS is its own) and
/// read back the record it wrote. The child's report is relayed.
fn child(kind: Kind, seed: u64, seconds: u64, trace: bool, quick: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let path = record_path(&out_dir(), kind, trace);
    let _ = std::fs::remove_file(&path);
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if quick {
        cmd.arg("--quick");
    }
    // `status` waits for the child, which shares this process's stdout.
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start the {} run: {e}", kind.name()))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("the {} run ({status}) left no record: {e}", kind.name()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One set of runs: every workload untraced, then traced.
struct Set {
    rows: Vec<(Kind, Json, Json)>,
}

impl Set {
    fn run(seed: u64, quick: bool, seconds: Option<u64>) -> Result<Set, String> {
        let e2e_s = seconds.unwrap_or(if quick { QUICK_SECONDS } else { RUN_SECONDS });
        let traced_s = if quick { QUICK_SECONDS } else { TRACED_SECONDS }.min(e2e_s);
        let mut rows = Vec::new();
        for kind in Kind::ALL {
            let e2e = child(kind, seed, e2e_s, false, quick)?;
            let layers = child(kind, seed, traced_s, true, quick)?;
            rows.push((kind, e2e, layers));
        }
        Ok(Set { rows })
    }

    fn correct(&self) -> bool {
        self.rows
            .iter()
            .all(|(_, a, b)| is_correct(a) && is_correct(b))
    }

    fn to_json(&self) -> Json {
        arr(self
            .rows
            .iter()
            .map(|(k, e2e, layers)| {
                obj(vec![
                    ("workload", str(k.name())),
                    ("e2e", e2e.clone()),
                    ("layers", layers.clone()),
                ])
            })
            .collect())
    }

    /// The baseline table: one row per workload, ratios beside their bases.
    fn table(&self) -> String {
        let mut out = format!(
            "{:<14} {:>9} {:>9} {:>8} {:>10} {:>8} {:>9} {:>11} {:>6}\n",
            "workload",
            "seq_ms",
            "casc_ms",
            "speedup",
            "sim.pred",
            "setup_s",
            "rss_mb",
            "reps(fail)",
            "ok"
        );
        for (kind, e2e, layers) in &self.rows {
            let v = |name| value(e2e, name);
            let pred = value(layers, "sim.pred_speedup");
            let n = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            out.push_str(&format!(
                "{:<14} {:>9.2} {:>9.2} {:>8.3} {:>10} {:>8.3} {:>9.1} {:>11} {:>6}\n",
                kind.name(),
                v("seq_ms"),
                v("casc_ms"),
                v("seq_ms") / v("casc_ms"),
                if pred > 0.0 {
                    format!("{pred:.3}")
                } else {
                    "-".into()
                },
                v("setup_s"),
                v("peak_rss_mb"),
                format!(
                    "{}({})",
                    n(e2e, "reps") + n(layers, "reps"),
                    n(e2e, "failed_reps") + n(layers, "failed_reps")
                ),
                if is_correct(e2e) && is_correct(layers) {
                    "yes"
                } else {
                    "NO"
                },
            ));
        }
        out.push_str("speedup = seq_ms / casc_ms of the untraced run; sim.pred is simulated Pentium Pro time at reduced scale, not this host\n");
        out
    }
}

/// Whether a record says its run was correct.
fn is_correct(record: &Json) -> bool {
    record.get("correct") == Some(&Json::Bool(true))
}

/// `metrics.<name>.value` of a record; 0 when absent.
fn value(record: &Json, name: &str) -> f64 {
    record
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Distance between two values of a metric as a share of the better
/// (smaller-magnitude) one: the larger of "b worse than a" and "a worse
/// than b", whichever way the metric points.
fn drift(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        0.0
    } else {
        (a - b).abs() / base
    }
}

/// Compare two sets: end-to-end metrics within their bounds either way,
/// exact counts of class `exact` identical. Returns the report and
/// whether it passed.
fn compare(a: &Set, b: &Set, same_seed: bool) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for ((kind, a_e2e, a_layers), (_, b_e2e, b_layers)) in a.rows.iter().zip(&b.rows) {
        if same_seed {
            for def in &END_TO_END {
                let (x, y) = (value(a_e2e, def.name), value(b_e2e, def.name));
                let drift = drift(x, y);
                let bound = def.bound.expect("end-to-end metrics are bounded");
                let pass = drift <= bound;
                ok &= pass;
                out.push_str(&format!(
                    "  {:<14} {:<12} {:>12} vs {:>12} {:<3} drift {:>6.2}% (bound {:>2.0}%)  {}\n",
                    kind.name(),
                    def.name,
                    fmt_value(x),
                    fmt_value(y),
                    def.unit,
                    drift * 100.0,
                    bound * 100.0,
                    if pass { "ok" } else { "OUT OF BOUND" }
                ));
            }
        }
        for def in PER_LAYER.iter().filter(|d| match d.kind {
            MetricKind::ExactAnySeed => true,
            MetricKind::ExactPerSeed => same_seed,
            MetricKind::Timing => false,
        }) {
            let (x, y) = (value(a_layers, def.name), value(b_layers, def.name));
            if x != y {
                ok = false;
                out.push_str(&format!(
                    "  {:<14} {:<36} exact count differs: {} vs {}\n",
                    kind.name(),
                    def.name,
                    x,
                    y
                ));
            }
        }
    }
    (out, ok)
}

/// Every workload, both runs; `results.json` and the table.
fn suite(cli: &Cli) -> Result<bool, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let first = Set::run(cli.seed, cli.quick, cli.seconds)?;
    let mut ok = first.correct();
    let mut doc = vec![
        ("host", Host::probe().to_json()),
        ("seed", num(cli.seed as f64)),
        ("quick", Json::Bool(cli.quick)),
        ("rows", first.to_json()),
    ];
    println!("\n{}", first.table());

    if cli.check_repeat {
        let second = Set::run(cli.seed, cli.quick, cli.seconds)?;
        let other_seed = Set::run(cli.seed + 1, cli.quick, cli.seconds)?;
        ok &= second.correct() && other_seed.correct();
        println!("\nsecond set, seed {}\n{}", cli.seed, second.table());
        println!("third set, seed {}\n{}", cli.seed + 1, other_seed.table());

        let (report, same_ok) = compare(&first, &second, true);
        println!("repeat check, two sets on seed {} (drift either way against each metric's bound; exact counts identical):", cli.seed);
        print!("{report}");
        let (report, seed_ok) = compare(&first, &other_seed, false);
        println!("seed check, seed {} against seed {} (seed-independent exact counts identical; correctness above):", cli.seed, cli.seed + 1);
        print!("{report}");
        println!(
            "check-repeat: {}",
            if same_ok && seed_ok && ok {
                "PASS"
            } else {
                "FAIL"
            }
        );
        ok &= same_ok && seed_ok;
        doc.push(("repeat_rows", second.to_json()));
        doc.push(("other_seed_rows", other_seed.to_json()));
    }
    doc.push(("correct", Json::Bool(ok)));
    write_file(&dir.join("results.json"), &obj(doc))?;
    println!("records, traces and results.json are in {}", dir.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let done = match cli.workload {
        Some(kind) => single(&cli, kind),
        None => suite(&cli),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let c = cli(&[
            "--workload",
            "zoo_prefetch",
            "--seed",
            "17",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload, Some(Kind::ZooPrefetch));
        assert_eq!(
            (c.seed, c.seconds, c.trace, c.quick),
            (17, Some(15), true, false)
        );
        let d = cli(&[]).unwrap();
        assert_eq!(
            (d.workload, d.seed, d.seconds, d.trace),
            (None, DEFAULT_SEED, None, false)
        );
        assert!(cli(&["--quick", "--check-repeat"]).unwrap().check_repeat);
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--trace", "2"],
            &["--trace"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }

    fn record(pairs: &[(&str, f64)]) -> Json {
        obj(vec![(
            "metrics",
            Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| (k.to_string(), obj(vec![("value", num(*v))])))
                    .collect(),
            ),
        )])
    }

    #[test]
    fn repeat_check_applies_bounds_and_exactness() {
        let e2e = |casc| {
            record(&[
                ("casc_ms", casc),
                ("seq_ms", 50.0),
                ("setup_s", 1.0),
                ("peak_rss_mb", 300.0),
            ])
        };
        let layers =
            |chunks, journal| record(&[("runner.chunks", chunks), ("journal.bytes", journal)]);
        let set = |casc, chunks, journal| Set {
            rows: vec![(Kind::SparsePack, e2e(casc), layers(chunks, journal))],
        };
        let base = set(100.0, 640.0, 4096.0);
        // 20% slower is inside casc_ms's 25% bound; 30% is not, either way round.
        assert!(compare(&base, &set(120.0, 640.0, 4096.0), true).1);
        assert!(!compare(&base, &set(130.0, 640.0, 4096.0), true).1);
        assert!(!compare(&set(130.0, 640.0, 4096.0), &base, true).1);
        // A seed-independent count may never move; a per-seed one may
        // move with the seed only.
        assert!(!compare(&base, &set(100.0, 641.0, 4096.0), false).1);
        assert!(compare(&base, &set(100.0, 640.0, 5000.0), false).1);
        assert!(!compare(&base, &set(100.0, 640.0, 5000.0), true).1);
        // Across seeds, timings are not compared at all.
        assert!(compare(&base, &set(150.0, 640.0, 4096.0), false).1);
        assert!(base.table().contains("sparse_pack"));
    }
}
