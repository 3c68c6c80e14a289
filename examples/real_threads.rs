//! Implementing [`RealKernel`] by hand: cascade your own loop on real
//! threads.
//!
//! The other examples drive the generic `SpecProgram` interpreter; this
//! one shows the pattern for production use — a concrete kernel type with
//! its state behind `UnsafeCell`, mutation confined to `execute` (whose
//! exclusivity the runner's token protocol guarantees), and a prefetch
//! helper using the x86-64 intrinsics.
//!
//! The loop is a recurrence the compiler must keep sequential:
//!
//! ```text
//! smooth[i] = 0.25*smooth[i-1] + 0.5*raw[i] + 0.25*raw[i+1]
//! ```
//!
//! ```sh
//! cargo run --release --example real_threads -- [threads] [iters_per_chunk]
//! ```

use std::cell::UnsafeCell;
use std::ops::Range;

use cascaded_execution::rt::{
    prefetch_range, run_sequential, try_run_governed, RealKernel, RtPolicy, RunConfig, RunnerConfig,
};

struct SmoothKernel {
    raw: Vec<f64>,
    smooth: UnsafeCell<Vec<f64>>,
}

// SAFETY: `smooth` is only mutated inside `execute`, which the cascade
// runner serializes via the token protocol (Release/Acquire edges between
// consecutive chunks).
unsafe impl Sync for SmoothKernel {}

impl SmoothKernel {
    fn new(n: usize) -> Self {
        SmoothKernel {
            raw: (0..n).map(|i| ((i * 37) % 1009) as f64 * 1e-3).collect(),
            smooth: UnsafeCell::new(vec![0.0; n]),
        }
    }

    fn result(self) -> Vec<f64> {
        self.smooth.into_inner()
    }
}

impl RealKernel for SmoothKernel {
    fn iters(&self) -> u64 {
        (self.raw.len() - 1) as u64
    }

    unsafe fn execute(&self, range: Range<u64>) {
        // SAFETY: the trait contract gives us exclusive access and
        // visibility of all previous chunks' writes.
        let smooth = unsafe { &mut *self.smooth.get() };
        for i in range {
            let i = i as usize;
            let prev = if i == 0 { 0.0 } else { smooth[i - 1] }; // loop-carried
            smooth[i] = 0.25 * prev + 0.5 * self.raw[i] + 0.25 * self.raw[i + 1];
        }
    }

    fn prefetch_iter(&self, i: u64) {
        let i = i as usize;
        // Warm the read operands of this iteration; the write target is
        // hinted too (write-allocate would otherwise miss).
        prefetch_range(self.raw[i..].as_ptr() as *const u8, 16);
        // SAFETY of the pointer math: in-bounds offset; prefetch performs
        // no language-level access.
        let smooth_base = self.smooth.get() as *const u8;
        prefetch_range(smooth_base.wrapping_add(i * 8), 8);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let threads: usize = args
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(2, |c| c.get().min(4)));
    let chunk: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(8192);
    let n = 1 << 21;

    // Sequential reference.
    let reference = {
        let k = SmoothKernel::new(n);
        let dt = run_sequential(&k);
        println!("sequential:          {:>8.2} ms", dt.as_secs_f64() * 1e3);
        k.result()
    };

    // Cascaded with prefetch helpers.
    let k = SmoothKernel::new(n);
    let stats = try_run_governed(
        &k,
        &RunConfig::from(RunnerConfig {
            nthreads: threads,
            iters_per_chunk: chunk,
            policy: RtPolicy::Prefetch,
            poll_batch: 256,
        }),
    )
    .expect("cascaded run failed");
    println!(
        "cascaded ({} thr):    {:>8.2} ms   {} chunks, helper coverage {:.0}%",
        threads,
        stats.elapsed.as_secs_f64() * 1e3,
        stats.chunks,
        stats.helper_coverage() * 100.0,
    );
    for (t, s) in stats.threads.iter().enumerate() {
        println!(
            "  thread {t}: {:>5} chunks, exec {:>7.2} ms, helper {:>7.2} ms, spin {:>7.2} ms",
            s.chunks,
            s.exec_ns as f64 / 1e6,
            s.helper_ns as f64 / 1e6,
            s.spin_ns as f64 / 1e6,
        );
    }

    let got = k.result();
    assert_eq!(
        got, reference,
        "cascaded execution must be bitwise sequential"
    );
    println!("result: bitwise identical to sequential execution");
}
