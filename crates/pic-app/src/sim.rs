//! The timestep driver: parallel-section field solves around cascaded
//! (or sequential) particle loops — the structure of a compiler-
//! parallelized wave5 run, in miniature.

use cascade_rt::{try_run_governed, RealKernel, RtPolicy, RunConfig, RunnerConfig};

use crate::grid::Grid;
use crate::kernels::{DepositKernel, PushKernel, SimState};
use crate::particles::Particles;

/// How the particle loops execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoverMode {
    /// Plain sequential execution (the baseline).
    Sequential,
    /// Cascaded execution on real threads.
    Cascaded {
        /// Worker threads.
        threads: usize,
        /// Particles per chunk.
        chunk: u64,
        /// Helper policy.
        policy: RtPolicy,
    },
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct PicConfig {
    /// Timestep (normalized; the plasma frequency is 1).
    pub dt: f64,
    /// Mover execution mode.
    pub mover: MoverMode,
}

/// Per-step diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepDiagnostics {
    /// Kinetic energy after the step.
    pub kinetic: f64,
    /// Field energy after the step.
    pub field: f64,
    /// Total momentum after the step.
    pub momentum: f64,
}

impl StepDiagnostics {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.kinetic + self.field
    }
}

/// A runnable 1-D electrostatic PIC simulation.
pub struct Simulation {
    state: SimState,
    cfg: PicConfig,
}

impl Simulation {
    /// Assemble a simulation.
    pub fn new(grid: Grid, particles: Particles, cfg: PicConfig) -> Self {
        assert!(
            cfg.dt > 0.0 && cfg.dt < 1.0,
            "dt must resolve the plasma frequency"
        );
        Simulation {
            state: SimState::new(grid, particles),
            cfg,
        }
    }

    fn run_kernel<K: RealKernel>(&self, kernel: &K, mode: MoverMode) {
        match mode {
            MoverMode::Sequential => {
                // SAFETY: `&self` is exclusive here (only step() calls us,
                // taking &mut self), so single-threaded execution is
                // trivially serialized.
                unsafe { kernel.execute(0..kernel.iters()) };
            }
            MoverMode::Cascaded {
                threads,
                chunk,
                policy,
            } => {
                try_run_governed(
                    kernel,
                    &RunConfig::from(RunnerConfig {
                        nthreads: threads,
                        iters_per_chunk: chunk,
                        policy,
                        poll_batch: 64,
                    }),
                )
                .expect("cascaded run failed");
            }
        }
    }

    /// Advance one timestep: deposit (sequential-semantics loop), field
    /// solve (parallel section), push (sequential-semantics loop).
    pub fn step(&mut self) -> StepDiagnostics {
        let mover = self.cfg.mover;
        self.state.grid_mut().clear_rho();
        let deposit = DepositKernel::new(&self.state);
        self.run_kernel(&deposit, mover);

        self.state.grid_mut().solve_field();

        let push = PushKernel::new(&self.state, self.cfg.dt);
        self.run_kernel(&push, mover);

        self.diagnostics()
    }

    /// Advance `steps` timesteps, collecting diagnostics.
    pub fn run(&mut self, steps: usize) -> Vec<StepDiagnostics> {
        (0..steps).map(|_| self.step()).collect()
    }

    /// Current diagnostics without stepping.
    pub fn diagnostics(&mut self) -> StepDiagnostics {
        let kinetic = self.state.particles().kinetic_energy();
        let field = self.state.grid().field_energy();
        let momentum = self.state.particles().momentum();
        StepDiagnostics {
            kinetic,
            field,
            momentum,
        }
    }

    /// Bit patterns of the particle state (for equivalence tests).
    pub fn particle_bits(&mut self) -> Vec<u64> {
        let p = self.state.particles();
        p.x.iter().chain(p.v.iter()).map(|v| v.to_bits()).collect()
    }
}

/// Estimate the oscillation period of a signal from the spacing of its
/// rising zero crossings (about its mean). Returns `None` when fewer than
/// two crossings exist.
pub fn estimate_period(signal: &[f64], dt: f64) -> Option<f64> {
    let mean = signal.iter().sum::<f64>() / signal.len() as f64;
    let mut crossings = Vec::new();
    for i in 1..signal.len() {
        let (a, b) = (signal[i - 1] - mean, signal[i] - mean);
        if a <= 0.0 && b > 0.0 {
            // Linear interpolation of the crossing time.
            let frac = -a / (b - a);
            crossings.push((i as f64 - 1.0 + frac) * dt);
        }
    }
    if crossings.len() < 2 {
        return None;
    }
    let spans: Vec<f64> = crossings.windows(2).map(|w| w[1] - w[0]).collect();
    Some(spans.iter().sum::<f64>() / spans.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oscillation_sim(mover: MoverMode) -> Simulation {
        let length = 2.0 * std::f64::consts::PI;
        let grid = Grid::new(128, length);
        let particles = Particles::plasma_oscillation(8192, length, 0.02, 1.0);
        Simulation::new(grid, particles, PicConfig { dt: 0.05, mover })
    }

    #[test]
    fn plasma_oscillation_frequency_is_omega_p() {
        // Field energy of a cold oscillation at omega_p = 1 oscillates
        // with period pi (energy goes at twice the field frequency).
        let mut sim = oscillation_sim(MoverMode::Sequential);
        let diags = sim.run(400);
        let energy: Vec<f64> = diags.iter().map(|d| d.field).collect();
        let period = estimate_period(&energy, 0.05).expect("oscillation expected");
        let expect = std::f64::consts::PI;
        assert!(
            (period - expect).abs() / expect < 0.08,
            "energy period {period:.3} vs pi (plasma frequency off)"
        );
    }

    #[test]
    fn energy_is_conserved_to_leapfrog_accuracy() {
        // Leapfrog total energy *oscillates* within a step (kinetic and
        // field energies are sampled half a step apart) but must not
        // drift secularly: compare the mean of the first and last
        // quarters of the run.
        let mut sim = oscillation_sim(MoverMode::Sequential);
        let diags = sim.run(400);
        let mean =
            |s: &[StepDiagnostics]| s.iter().map(|d| d.total()).sum::<f64>() / s.len() as f64;
        let early = mean(&diags[..100]);
        let late = mean(&diags[300..]);
        let drift = (late - early).abs() / early;
        assert!(
            drift < 0.02,
            "secular energy drift {:.2}% (early {early:.3e}, late {late:.3e})",
            drift * 100.0
        );
        // And the in-step oscillation stays bounded.
        let (min, max) = diags[5..]
            .iter()
            .map(|d| d.total())
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), e| {
                (lo.min(e), hi.max(e))
            });
        assert!((max - min) / early < 0.3, "energy ripple out of bounds");
    }

    #[test]
    fn momentum_is_conserved() {
        // CIC deposition with a cell-centred field has a small known
        // self-force; net momentum must stay tiny relative to the
        // characteristic momentum (total mass x velocity amplitude).
        let mut sim = oscillation_sim(MoverMode::Sequential);
        let diags = sim.run(200);
        let p_char = 2.0 * std::f64::consts::PI * 0.02; // m_total * v_amp
        for d in &diags {
            assert!(
                d.momentum.abs() / p_char < 1e-3,
                "net momentum appeared: {} ({:.2e} of characteristic)",
                d.momentum,
                d.momentum.abs() / p_char
            );
        }
    }

    #[test]
    fn cascaded_mover_is_bitwise_sequential() {
        let mut seq = oscillation_sim(MoverMode::Sequential);
        seq.run(25);
        let expected = seq.particle_bits();
        for policy in [RtPolicy::None, RtPolicy::Prefetch] {
            let mut casc = oscillation_sim(MoverMode::Cascaded {
                threads: 3,
                chunk: 509,
                policy,
            });
            casc.run(25);
            assert_eq!(casc.particle_bits(), expected, "policy {policy:?} diverged");
        }
    }

    #[test]
    fn two_stream_instability_grows_field_energy() {
        // Counter-streaming beams are unstable: field energy must grow by
        // orders of magnitude from the seeded noise, then saturate.
        let length = 2.0 * std::f64::consts::PI * 2.0;
        let grid = Grid::new(128, length);
        let particles = Particles::two_stream(16384, length, 1.0, 7);
        let mut sim = Simulation::new(
            grid,
            particles,
            PicConfig {
                dt: 0.05,
                mover: MoverMode::Sequential,
            },
        );
        let diags = sim.run(600);
        let early = diags[10].field;
        let late = diags
            .iter()
            .skip(200)
            .map(|d| d.field)
            .fold(0.0f64, f64::max);
        assert!(
            late > early * 100.0,
            "two-stream field energy must grow: early {early:.3e}, late {late:.3e}"
        );
    }

    #[test]
    fn period_estimator_on_a_known_sine() {
        let dt = 0.01;
        let signal: Vec<f64> = (0..2000)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 * dt / 0.7).sin())
            .collect();
        let p = estimate_period(&signal, dt).unwrap();
        assert!((p - 0.7).abs() < 0.01, "period {p}");
    }
}
