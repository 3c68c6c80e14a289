//! Deterministic smoke coverage of every experiment binary.
//!
//! Each paper table/figure binary (and each extra experiment) runs at a
//! tiny `CASCADE_SCALE`, must exit 0, and must emit its section header —
//! so a broken experiment fails `cargo test` instead of being discovered
//! the next time someone regenerates `results/`. The scales are chosen to
//! keep the whole suite fast in debug builds; relative shapes (and any
//! internal bitwise assertions the binaries carry) are exercised all the
//! same.

use std::process::Command;

/// Run one experiment binary at `scale`, asserting exit 0, and return its
/// stdout.
fn run_scaled(exe: &str, scale: &str) -> String {
    let out = Command::new(exe)
        .env("CASCADE_SCALE", scale)
        .output()
        .unwrap_or_else(|e| panic!("{exe}: failed to spawn: {e}"));
    assert!(
        out.status.success(),
        "{exe} (scale {scale}) exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8(out.stdout).expect("experiment output must be UTF-8")
}

/// Assert the output carries the `header()` banner (title + separator).
fn assert_header(exe: &str, out: &str, title: &str) {
    assert!(
        out.contains(title),
        "{exe}: missing section header '{title}'\n{out}"
    );
    assert!(
        out.contains("===="),
        "{exe}: missing header separator\n{out}"
    );
}

macro_rules! smoke {
    ($test:ident, $bin:literal, $scale:literal, $title:literal $(, $extra:literal)*) => {
        #[test]
        fn $test() {
            let exe = env!(concat!("CARGO_BIN_EXE_", $bin));
            let out = run_scaled(exe, $scale);
            assert_header(exe, &out, $title);
            $(assert!(
                out.contains($extra),
                "{exe}: missing '{}'\n{out}", $extra
            );)*
        }
    };
}

smoke!(
    table1_smoke,
    "table1",
    "1",
    "Table 1:",
    "Pentium Pro",
    "R10000"
);
smoke!(overview_smoke, "overview", "0.005", "Overview", "speedup");
smoke!(
    fig1_smoke,
    "fig1_schedule",
    "0.005",
    "Figure 1: execution timelines"
);
smoke!(
    fig2_smoke,
    "fig2_speedup_procs",
    "0.005",
    "Figure 2: overall PARMVR speedup"
);
smoke!(
    fig3_smoke,
    "fig3_loop_times",
    "0.005",
    "Figure 3: execution time of each PARMVR loop"
);
smoke!(
    fig4_smoke,
    "fig4_l2_misses",
    "0.005",
    "Figure 4: L2 cache misses"
);
smoke!(
    fig5_smoke,
    "fig5_l1_misses",
    "0.005",
    "Figure 5: L1 data cache misses"
);
smoke!(
    fig6_smoke,
    "fig6_chunk_size",
    "0.005",
    "Figure 6: PARMVR speedup vs chunk size"
);
smoke!(
    fig7_smoke,
    "fig7_future",
    "0.002",
    "Figure 7: synthetic-loop speedups"
);
smoke!(
    extra_amdahl_smoke,
    "extra_amdahl",
    "0.005",
    "Extra F: whole-application (Amdahl) projection"
);
smoke!(
    extra_hoist_smoke,
    "extra_hoist_ablation",
    "0.005",
    "Extra D: restructuring with vs without compute hoisting"
);
smoke!(
    extra_jumpout_smoke,
    "extra_jumpout_ablation",
    "0.005",
    "Extra B: jump-out-of-helper ablation"
);
smoke!(
    extra_kernels_smoke,
    "extra_kernels",
    "0.01",
    "Extra G: cascaded execution across kernel classes"
);
smoke!(
    extra_modern_smoke,
    "extra_modern",
    "0.005",
    "Extra I: cascaded execution on a modern"
);
smoke!(
    extra_reuse_smoke,
    "extra_reuse_profile",
    "0.005",
    "Extra H: reuse-distance profile"
);
smoke!(
    extra_tlb_smoke,
    "extra_tlb_effect",
    "0.005",
    "Extra E: restructuring with a modelled TLB"
);
smoke!(
    extra_unbounded_smoke,
    "extra_unbounded_wave5",
    "0.005",
    "Extra A: unbounded-processor speedups"
);
