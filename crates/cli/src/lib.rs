//! # cascade-cli — the `cascade` command
//!
//! A command-line front end to the cascaded-execution reproduction:
//!
//! ```text
//! cascade machines
//! cascade sim   --workload parmvr --machine r10000 --procs 8 --policy restructure+hoist
//! cascade sim   --workload synth-sparse --unbounded --chunk 16K
//! cascade rt    --workload parmvr --threads 4 --chunk-iters 2048 --policy restructure
//! cascade sweep --param procs --values 2,4,6,8 --machine r10000
//! cascade sweep --param chunk --values 4K,16K,64K,256K --machine ppro
//! ```
//!
//! The library exposes [`run`] (arguments in, report text out) so the
//! whole interface is unit-testable; the `cascade` binary is a thin
//! wrapper.

#![warn(missing_docs)]

pub mod args;
pub mod chaos;
pub mod commands;

pub use args::{ArgError, Args, ErrorKind};

/// Entry point: parse `raw` (excluding `argv[0]`) and execute the
/// subcommand, returning the report text.
///
/// Every failure comes back as a typed [`ArgError`] — including a panic
/// inside a command, which is caught and reported as
/// [`ErrorKind::Internal`] instead of aborting the process mid-report.
pub fn run<I, S>(raw: I) -> Result<String, ArgError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let args = Args::parse(raw)?;
    let dispatch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
        || -> Result<String, ArgError> {
            match args.command.as_deref() {
                None | Some("help") => Ok(commands::help()),
                Some("machines") => commands::machines(&args),
                Some("sim") => commands::sim(&args),
                Some("rt") => commands::rt(&args),
                Some("run") => commands::run(&args),
                Some("metrics") => commands::metrics(&args),
                Some("chaos") => chaos::run(&args),
                Some("resume") => commands::resume(&args),
                // Hidden: the child half of `chaos --kill`.
                Some("ckpt-run") => chaos::ckpt_run(&args),
                Some("sweep") => commands::sweep(&args),
                Some("analyze") => commands::analyze(&args),
                Some("plan") => commands::plan(&args),
                Some("dump") => commands::dump(&args),
                Some("schedule") => commands::schedule(&args),
                Some(other) => Err(ArgError::usage(format!(
                    "unknown subcommand '{other}' (try: machines, sim, rt, run, metrics, chaos, resume, sweep, analyze, plan, dump, schedule, help)"
                ))),
            }
        },
    ));
    match dispatch {
        Ok(result) => result,
        Err(payload) => {
            let what = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(ArgError::internal(format!(
                "command panicked: {what} (this is a bug in cascade, not in your invocation)"
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_is_the_default() {
        let out = run(Vec::<String>::new()).unwrap();
        assert!(out.contains("cascade sim"));
        assert!(out.contains("cascade rt"));
    }

    #[test]
    fn unknown_subcommand_errors() {
        let err = run(["frobnicate"]).unwrap_err();
        assert!(err.message().contains("unknown subcommand"));
    }

    #[test]
    fn machines_lists_both_testbeds() {
        let out = run(["machines"]).unwrap();
        assert!(out.contains("Pentium Pro"));
        assert!(out.contains("R10000"));
        assert!(out.contains("512 KB"));
    }

    #[test]
    fn sim_runs_a_tiny_parmvr() {
        let out = run([
            "sim",
            "--workload",
            "parmvr",
            "--scale",
            "0.005",
            "--procs",
            "2",
            "--policy",
            "prefetch",
        ])
        .unwrap();
        assert!(out.contains("overall speedup"), "missing summary: {out}");
        assert!(out.contains("prefetched"));
    }

    #[test]
    fn sim_per_loop_table() {
        let out = run([
            "sim",
            "--workload",
            "parmvr",
            "--scale",
            "0.005",
            "--per-loop",
        ])
        .unwrap();
        assert!(out.contains("L1 field gather"));
        assert!(out.contains("L15"));
    }

    #[test]
    fn sim_unbounded_synth() {
        let out = run([
            "sim",
            "--workload",
            "synth-sparse",
            "--n",
            "65536",
            "--unbounded",
            "--chunk",
            "8K",
        ])
        .unwrap();
        assert!(out.contains("unbounded"));
    }

    #[test]
    fn sim_future_machine() {
        let out = run([
            "sim",
            "--workload",
            "synth-dense",
            "--n",
            "65536",
            "--future",
            "4",
        ])
        .unwrap();
        assert!(out.contains("Future"));
    }

    #[test]
    fn rt_verifies_bitwise() {
        let out = run([
            "rt",
            "--workload",
            "synth-dense",
            "--n",
            "32768",
            "--threads",
            "2",
            "--chunk-iters",
            "512",
        ])
        .unwrap();
        assert!(out.contains("bitwise identical"), "{out}");
    }

    #[test]
    fn metrics_reports_the_phase_breakdown() {
        let out = run([
            "metrics",
            "--n",
            "8192",
            "--threads",
            "2",
            "--chunk-iters",
            "512",
        ])
        .unwrap();
        assert!(out.contains("real-thread cascade metrics"), "{out}");
        assert!(out.contains("token handoffs:"), "{out}");
        assert!(out.contains("helper"), "{out}");
        assert!(out.contains("spin"), "{out}");
        assert!(out.contains("execute"), "{out}");
    }

    #[test]
    fn metrics_json_carries_the_shared_schema() {
        let out = run([
            "metrics", "--source", "sim", "--n", "8192", "--procs", "2", "--chunk", "8K",
            "--format", "json", "--events",
        ])
        .unwrap();
        assert!(out.contains("\"source\": \"simulated\""), "{out}");
        assert!(out.contains("\"time_unit\": \"cycles\""), "{out}");
        assert!(out.contains("\"handoff\""), "{out}");
        assert!(out.contains("\"kind\": \"execute\""), "{out}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                out.matches(open).count(),
                out.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn metrics_rt_json_reports_nanoseconds() {
        let out = run([
            "metrics",
            "--n",
            "8192",
            "--threads",
            "2",
            "--chunk-iters",
            "512",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(out.contains("\"source\": \"real\""), "{out}");
        assert!(out.contains("\"time_unit\": \"ns\""), "{out}");
    }

    /// The simulated metrics report is deterministic, so the exact JSON
    /// for the default invocation is checked in as a golden file. This
    /// pins the schema AND the simulator's cost model: a diff here means
    /// either an intentional schema change (regenerate the golden with
    /// `cargo run --release -p cascade-cli -- metrics --source sim
    /// --format json --events --out results/metrics-golden.json`) or an
    /// unintended behaviour change.
    #[test]
    fn metrics_sim_matches_the_checked_in_golden() {
        let out = run(["metrics", "--source", "sim", "--format", "json", "--events"]).unwrap();
        let golden_path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/metrics-golden.json"
        );
        let golden = std::fs::read_to_string(golden_path).expect("golden file must exist");
        assert_eq!(
            out, golden,
            "simulated metrics diverged from results/metrics-golden.json"
        );
    }

    #[test]
    fn metrics_rejects_unknown_source_and_format() {
        let err = run(["metrics", "--source", "fpga"]).unwrap_err();
        assert!(err.message().contains("rt|sim"), "{err}");
        let err = run(["metrics", "--n", "4096", "--format", "xml"]).unwrap_err();
        assert!(err.message().contains("text|json"), "{err}");
    }

    #[test]
    fn chaos_matrix_recovers_every_plan() {
        let out = run([
            "chaos",
            "--n",
            "2048",
            "--plans",
            "6",
            "--chunk-iters",
            "64",
            "--max-threads",
            "3",
            "--stall-ms",
            "60",
        ])
        .unwrap();
        assert!(out.contains("chaos matrix: 6 fault plans"), "{out}");
        assert!(out.contains("summary:"), "{out}");
        assert!(out.contains("0 diverged"), "{out}");
        assert!(out.contains("no hangs, no silent corruption"), "{out}");
    }

    #[test]
    fn chaos_cancel_storm_resumes_bitwise_across_tolerances() {
        for tolerance in ["salvage", "retry", "fail-fast"] {
            let out = run([
                "chaos",
                "--cancel",
                "--n",
                "2048",
                "--plans",
                "6",
                "--chunk-iters",
                "64",
                "--max-threads",
                "3",
                "--stall-ms",
                "60",
                "--tolerance",
                tolerance,
            ])
            .unwrap_or_else(|e| panic!("[{tolerance}] {e}"));
            assert!(out.contains("cancel storm on"), "[{tolerance}] {out}");
            assert!(out.contains("cancelled+resumed"), "[{tolerance}] {out}");
            assert!(out.contains("0 diverged"), "[{tolerance}] {out}");
            assert!(
                out.contains("no hangs, no silent corruption"),
                "[{tolerance}] {out}"
            );
        }
    }

    #[test]
    fn chaos_rejects_zero_plans() {
        let err = run(["chaos", "--plans", "0"]).unwrap_err();
        assert!(err.message().contains("--plans"), "{err}");
        assert_eq!(err.kind(), ErrorKind::Usage);
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn chaos_retry_tolerance_reports_the_ladder() {
        let out = run([
            "chaos",
            "--n",
            "2048",
            "--plans",
            "6",
            "--chunk-iters",
            "64",
            "--max-threads",
            "3",
            "--stall-ms",
            "60",
            "--tolerance",
            "retry",
        ])
        .unwrap();
        assert!(out.contains("tolerance retry"), "{out}");
        assert!(
            out.contains("recovery ladder: fail-fast -> retry -> quarantine -> salvage"),
            "{out}"
        );
        assert!(out.contains("recovered in-cascade"), "{out}");
        assert!(out.contains("no hangs, no silent corruption"), "{out}");
    }

    #[test]
    fn chaos_rejects_unknown_tolerance() {
        let err = run(["chaos", "--plans", "2", "--tolerance", "heroic"]).unwrap_err();
        assert!(err.message().contains("--tolerance"), "{err}");
        assert_eq!(err.kind(), ErrorKind::Usage);
    }

    #[test]
    fn rt_verify_every_replays_every_chunk() {
        let out = run([
            "rt",
            "--workload",
            "synth-dense",
            "--n",
            "8192",
            "--threads",
            "2",
            "--chunk-iters",
            "512",
            "--verify",
            "every",
        ])
        .unwrap();
        assert!(out.contains("chunks replay-verified"), "{out}");
        assert!(out.contains("no corruption"), "{out}");
        assert!(out.contains("bitwise identical"), "{out}");
    }

    #[test]
    fn rt_rejects_malformed_verify_policies() {
        let err = run(["rt", "--n", "4096", "--verify", "paranoid"]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Usage);
        assert!(
            err.message().contains("off|checksum|every|sampled:K"),
            "{err}"
        );
        let err = run(["rt", "--n", "4096", "--verify", "sampled:0"]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Usage);
        assert!(err.message().contains("sampled:0"), "{err}");
    }

    #[test]
    fn chaos_corrupt_storm_detects_every_flip() {
        let out = run([
            "chaos",
            "--corrupt",
            "--n",
            "4096",
            "--plans",
            "4",
            "--chunk-iters",
            "64",
            "--max-threads",
            "3",
        ])
        .unwrap();
        assert!(out.contains("corruption storm"), "{out}");
        assert!(out.contains("0 missed"), "{out}");
        assert!(out.contains("0 diverged"), "{out}");
        assert!(
            out.contains("every flip detected online, zero silent divergence"),
            "{out}"
        );
    }

    #[test]
    fn chaos_corrupt_fail_fast_resumes_clean() {
        let out = run([
            "chaos",
            "--corrupt",
            "--n",
            "4096",
            "--plans",
            "4",
            "--chunk-iters",
            "64",
            "--max-threads",
            "3",
            "--tolerance",
            "fail-fast",
        ])
        .unwrap();
        assert!(out.contains("failed fast with clean resume"), "{out}");
        assert!(
            out.contains("every flip detected online, zero silent divergence"),
            "{out}"
        );
    }

    #[test]
    fn chaos_corrupt_rejects_non_replaying_policies() {
        for policy in ["off", "checksum"] {
            let err = run(["chaos", "--corrupt", "--verify", policy]).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Usage, "[{policy}]");
            assert!(err.message().contains("replay"), "[{policy}] {err}");
        }
    }

    #[test]
    fn sweep_over_procs() {
        let out = run([
            "sweep",
            "--param",
            "procs",
            "--values",
            "2,3",
            "--workload",
            "parmvr",
            "--scale",
            "0.005",
        ])
        .unwrap();
        assert!(out.contains("procs=2"));
        assert!(out.contains("procs=3"));
    }

    #[test]
    fn sweep_over_chunk() {
        let out = run([
            "sweep",
            "--param",
            "chunk",
            "--values",
            "8K,32K",
            "--workload",
            "synth-sparse",
            "--n",
            "65536",
        ])
        .unwrap();
        assert!(out.contains("chunk=8K"));
        assert!(out.contains("chunk=32K"));
    }

    #[test]
    fn analyze_profiles_a_gather_loop() {
        let out = run([
            "analyze",
            "--workload",
            "parmvr",
            "--scale",
            "0.005",
            "--loop",
            "0",
        ])
        .unwrap();
        assert!(out.contains("original"), "{out}");
        assert!(out.contains("restructured"));
        assert!(out.contains("dominant strides"));
    }

    #[test]
    fn analyze_all_reports_the_lattice() {
        let out = run(["analyze", "--all", "--n", "1024", "--scale", "0.005"]).unwrap();
        assert!(out.contains("triangular_solve: admitted"), "{out}");
        assert!(out.contains("horizon_safe(lag=1)"), "{out}");
        assert!(out.contains("wave5-parmvr: admitted"), "{out}");
        assert!(out.contains("7/7 targets admitted"), "{out}");
    }

    #[test]
    fn analyze_all_json_is_structured() {
        let out = run([
            "analyze", "--all", "--n", "1024", "--scale", "0.005", "--format", "json",
        ])
        .unwrap();
        assert!(out.contains("\"schema\": \"cascade-analyze-v1\""), "{out}");
        assert!(out.contains("\"class\": \"horizon_safe\""), "{out}");
        assert!(out.contains("\"code\": \"AN005\""), "{out}");
        // Balanced braces/brackets: a cheap structural sanity check that
        // needs no JSON parser.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                out.matches(open).count(),
                out.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
    }

    #[test]
    fn analyze_all_unsafe_workload_is_a_verification_failure() {
        // A loop that writes its own index array is unanalyzable: the
        // gather's targets change under the loop's feet.
        let dir = std::env::temp_dir().join("cascade-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unsafe.txt");
        let contents: Vec<String> = (0..128u64).map(|i| i.to_string()).collect();
        std::fs::write(
            &path,
            format!(
                "cascade-workload v1\n\
                 array x elem=8 len=128 align=64\n\
                 array idx elem=8 len=128 align=64\n\
                 index 1 {}\n\
                 loop 64 compute=4 hoistable=0 hoist_bytes=0 name=writes-own-index\n\
                 ref 0 mode=r bytes=8 hoistable=0 indirect 1 0 1\n\
                 ref 1 mode=w bytes=8 hoistable=0 affine 0 1\n",
                contents.join(" ")
            ),
        )
        .unwrap();
        let err = run([
            "analyze",
            "--all",
            "--workload-file",
            path.to_str().unwrap(),
        ])
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Verification);
        assert_eq!(err.exit_code(), 1);
        assert!(err.message().contains("AN003"), "{err}");
        assert!(err.message().contains("REJECTED"), "{err}");
    }

    #[test]
    fn plan_reports_the_mode_matrix() {
        let out = run(["plan", "--all", "--n", "1024", "--scale", "0.005"]).unwrap();
        assert!(out.contains("== fused_stream"), "{out}");
        assert!(out.contains("sub-loop 0: [S0] sequential"), "{out}");
        assert!(out.contains("sub-loop 1: [S1] parallel"), "{out}");
        assert!(out.contains("fission=true (2 sub-loops)"), "{out}");
        assert!(out.contains("S0->S1 flow(1)"), "{out}");
        assert!(
            out.contains("summary: 21/21 plans replay-validated"),
            "{out}"
        );
    }

    #[test]
    fn plan_json_matches_the_checked_in_golden() {
        // Default parameters are exactly what CI regenerates; the golden
        // protects every layer from dependence edges to mode threading.
        let out = run(["plan", "--all", "--format", "json"]).unwrap();
        let golden = include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/plan-golden.json"
        ));
        assert!(
            out == golden,
            "plan output drifted from results/plan-golden.json; regenerate with:\n  \
             cargo run --release -p cascade-cli -- plan --all --format json > results/plan-golden.json"
        );
    }

    #[test]
    fn run_plan_mode_executes_fused_stream_bitwise() {
        // The acceptance loop for the plan-driven executor: fused_stream
        // fissions into [sequential recurrence, parallel consumer], and
        // the planned run on real threads must be bitwise-equal to
        // straight sequential execution.
        let dir = std::env::temp_dir().join("cascade-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fused-stream.txt");
        let k = cascade_kernels::fused_stream(4096, 11);
        std::fs::write(&path, cascade_trace::to_text(&k.workload)).unwrap();
        let out = run([
            "run",
            "--workload-file",
            path.to_str().unwrap(),
            "--threads",
            "3",
            "--chunk-iters",
            "256",
        ])
        .unwrap();
        assert!(out.contains("plan-driven execution"), "{out}");
        assert!(out.contains("2 sub-loops"), "{out}");
        assert!(out.contains("sub-loop 0: sequential"), "{out}");
        assert!(out.contains("sub-loop 1: parallel"), "{out}");
        assert!(out.contains("bitwise identical"), "{out}");
        // The residue's helper has nothing to do, so it runs plain and
        // the consumer rides behind it.
        let consumer = out.lines().find(|l| l.contains("sub-loop 1:")).unwrap();
        assert!(
            consumer.contains("pipelined after sub-loop 0") && consumer.contains("ms overlap"),
            "{out}"
        );
    }

    #[test]
    fn run_plan_mode_executes_parmvr_bitwise() {
        let out = run([
            "run",
            "--workload",
            "parmvr",
            "--scale",
            "0.005",
            "--threads",
            "2",
            "--chunk-iters",
            "512",
        ])
        .unwrap();
        assert!(out.contains("plan-driven execution"), "{out}");
        // The PARMVR suite mixes DOALL sweeps with scatter loops whose
        // plans stay sequential; both must ride the planned executor.
        assert!(out.contains("parallel"), "{out}");
        assert!(out.contains("sequential"), "{out}");
        assert!(out.contains("bitwise identical"), "{out}");
    }

    #[test]
    fn run_cascade_mode_delegates_to_the_token_runtime() {
        let out = run([
            "run",
            "--mode",
            "cascade",
            "--workload",
            "synth-dense",
            "--n",
            "4096",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(out.contains("real-thread cascaded execution"), "{out}");
        assert!(out.contains("bitwise identical"), "{out}");
    }

    #[test]
    fn run_rejects_unknown_mode() {
        let err = run(["run", "--mode", "speculative"]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Usage);
        assert!(err.message().contains("cascade|plan"), "{err}");
    }

    #[test]
    fn chaos_plan_matrix_recovers_across_tolerances() {
        // The planned executor under the full storm — injected faults,
        // mid-mutation panics, cancellation — must never corrupt:
        // every case finishes bitwise, salvages bitwise, resumes
        // bitwise from the committed prefix, or reports a typed error.
        for tol in ["salvage", "retry", "fail-fast"] {
            let out = run([
                "chaos",
                "--mode",
                "plan",
                "--plans",
                "6",
                "--n",
                "1024",
                "--seed",
                "3",
                "--max-threads",
                "3",
                "--tolerance",
                tol,
                "--mid-mutation",
                "--cancel",
            ])
            .unwrap_or_else(|e| panic!("tolerance {tol}: {e}"));
            assert!(
                out.contains("no hangs, no silent corruption"),
                "{tol}: {out}"
            );
            assert!(out.contains("0 diverged"), "{tol}: {out}");
        }
    }

    #[test]
    fn plan_rejects_unknown_format() {
        let err = run(["plan", "--format", "yaml"]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Usage);
        assert!(
            err.message().contains("unknown format"),
            "{}",
            err.message()
        );
    }

    #[test]
    fn analyze_all_rejects_unknown_format() {
        let err = run(["analyze", "--all", "--format", "xml"]).unwrap_err();
        assert!(err.message().contains("text|json"), "{err}");
        assert_eq!(err.kind(), ErrorKind::Usage);
    }

    #[test]
    fn analyze_rejects_out_of_range_loop() {
        let err = run([
            "analyze",
            "--workload",
            "synth-dense",
            "--n",
            "4096",
            "--loop",
            "5",
        ])
        .unwrap_err();
        assert!(err.message().contains("loops"));
    }

    #[test]
    fn dump_then_simulate_round_trips() {
        let dir = std::env::temp_dir().join("cascade-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wl.txt");
        let p = path.to_str().unwrap();
        let out = run([
            "dump",
            "--workload",
            "synth-dense",
            "--n",
            "4096",
            "--out",
            p,
        ])
        .unwrap();
        assert!(out.contains("wrote"));
        let sim = run(["sim", "--workload-file", p, "--procs", "2", "--chunk", "4K"]).unwrap();
        assert!(sim.contains("overall speedup"), "{sim}");
        let sched = run([
            "schedule",
            "--workload-file",
            p,
            "--procs",
            "2",
            "--chunks",
            "6",
        ])
        .unwrap();
        assert!(sched.contains("E"), "{sched}");
        assert!(sched.contains("helper phase"));
    }

    #[test]
    fn schedule_renders_a_timeline() {
        let out = run([
            "schedule",
            "--workload",
            "parmvr",
            "--scale",
            "0.005",
            "--procs",
            "3",
        ])
        .unwrap();
        assert!(out.contains("proc 0"));
        assert!(out.contains("proc 2"));
        assert!(out.contains("execution phase"));
    }

    /// Run a small checkpointed governed loop to completion, leaving a
    /// fully populated checkpoint directory behind for `resume` tests.
    fn make_checkpoint(tag: &str) -> std::path::PathBuf {
        use cascade_rt::{
            CkptMeta, CkptPolicy, CkptSink, CkptWriter, RtPolicy, RunConfig, RunnerConfig,
            SpecProgram,
        };
        use cascade_synth::{Synth, Variant};
        let dir =
            std::env::temp_dir().join(format!("cascade-cli-resume-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = Synth::build(4096, Variant::Sparse, 7);
        let text = cascade_trace::to_text(&s.workload);
        let base = s.arena.bytes().to_vec();
        let iters = s.workload.loops[0].iters;
        let prog = SpecProgram::new(s.workload, s.arena).unwrap();
        let writer = CkptWriter::create(
            &dir,
            &text,
            CkptMeta {
                loop_index: 0,
                iters,
                iters_per_chunk: 256,
            },
            &base,
        )
        .unwrap();
        let cfg = RunConfig {
            runner: RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 256,
                policy: RtPolicy::Restructure,
                poll_batch: 8,
            },
            ckpt_sink: Some(CkptSink::new(writer, CkptPolicy::EveryChunks(1))),
            ..RunConfig::default()
        };
        cascade_rt::try_run_governed(&prog.kernel(0), &cfg).unwrap();
        dir
    }

    #[test]
    fn resume_restores_a_checkpointed_run_bitwise() {
        let dir = make_checkpoint("ok");
        let out = run(["resume", "--dir", dir.to_str().unwrap(), "--verify"]).unwrap();
        assert!(out.contains("finished sequentially"), "{out}");
        assert!(
            out.contains("bitwise identical to an uninterrupted sequential run"),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_a_corrupted_checkpoint() {
        let dir = make_checkpoint("corrupt");
        let p = dir.join("base.bin");
        let mut b = std::fs::read(&p).unwrap();
        b[0] ^= 1;
        std::fs::write(&p, &b).unwrap();
        let err = run(["resume", "--dir", dir.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Usage);
        assert_eq!(err.exit_code(), 2);
        assert!(err.message().contains("base.bin"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_requires_a_directory() {
        let err = run(["resume"]).unwrap_err();
        assert!(err.message().contains("--dir"), "{err}");
        assert_eq!(err.kind(), ErrorKind::Usage);
    }

    #[test]
    fn bad_machine_is_reported() {
        let err = run(["sim", "--machine", "cray"]).unwrap_err();
        assert!(err.message().contains("machine"));
    }

    #[test]
    fn typo_options_are_rejected() {
        let err = run(["sim", "--prox", "4"]).unwrap_err();
        assert!(err.message().contains("unknown option"), "{err}");
    }
}
