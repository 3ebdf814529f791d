//! Workloads and the inputs they generate from the workload seed.
//!
//! Every workload runs the same protocol — solo runs, then service rounds
//! that serve a set of tenants, kill the service after snapshot 0 and
//! restart it — so every workload reports every metric. What differs is
//! the solo input:
//!
//! * `citations` — solo runs on citations at scale 0.035 (|A×B| = 207 k,
//!   2.1 × t_B): blocking triggers and the blocker is most of the run.
//! * `restaurants` — solo runs on restaurants at scale 0.7 (|A×B| =
//!   86 536 < t_B): blocking is skipped; vectorizing every pair, the
//!   learner, estimator and locator take the time.
//!
//! A Corleone run's path (how many active-learning iterations the blocker
//! takes, how many pairs the crowd labels) swings widely from one
//! generated input to the next, so every workload runs a fixed-size panel
//! of distinct inputs drawn from the seed and reports interquartile means
//! over the panel. A citations run takes 1.5–2.5 s at 10 blocker
//! iterations and up to 5 s at 30; its time is set by the blocker's work
//! on its sample, which does not shrink with the scale, so the scale is
//! the smallest that keeps |A×B| clear of t_B.
//!
//! The service tenants are small restaurants tasks; they come in pairs
//! that share tables (so the analysis registry hits) but not run seeds.
//! Each service round serves tenants of its own, so the rounds of one run
//! sample distinct snapshots.

use corleone::{Engine, MatchTask};
use crowd::{CrowdPlatform, FaultConfig, GoldOracle};
use datagen::GenConfig;

/// Mean worker error rate of the simulated crowd.
pub const ERROR_RATE: f64 = 0.05;

/// Scale of every service tenant.
pub const TENANT_SCALE: f64 = 0.08;

/// Service tenants per round.
pub const TENANTS: u64 = 16;

/// Service rounds a plan has distinct tenants for.
pub const MAX_ROUNDS: usize = 8;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Solo citations runs; the blocker dominates.
    Citations,
    /// Solo restaurants runs; vectorizing and the matcher loop dominate.
    Restaurants,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Citations, Workload::Restaurants];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Citations => "citations",
            Workload::Restaurants => "restaurants",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The inputs this workload runs for `seed`.
    pub fn plan(self, seed: u64) -> Plan {
        let base = seed.wrapping_mul(1000);
        let (dataset, scale, k) = match self {
            Workload::Citations => ("citations", 0.035, 12),
            Workload::Restaurants => ("restaurants", 0.7, 16),
        };
        let solo = (0..k)
            .map(|i| InputSpec {
                dataset,
                scale,
                data_seed: base + i,
                run_seed: base + i,
            })
            .collect();
        Plan { solo, base }
    }
}

/// What one workload runs: solo inputs, then service rounds.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Inputs run solo through `Engine::session(..).try_run()`.
    pub solo: Vec<InputSpec>,
    base: u64,
}

impl Plan {
    /// The inputs submitted as tenants of one `MatchService` in service
    /// round `round` (below [`MAX_ROUNDS`]); every round has its own.
    pub fn tenants(&self, round: usize) -> Vec<InputSpec> {
        assert!(round < MAX_ROUNDS, "plans have {MAX_ROUNDS} rounds");
        let first = round as u64 * TENANTS;
        (first..first + TENANTS)
            .map(|j| InputSpec {
                dataset: "restaurants",
                scale: TENANT_SCALE,
                data_seed: self.base + 500 + j / 2,
                run_seed: self.base + 600 + j,
            })
            .collect()
    }
}

/// One generated input: a dataset at a scale, and the seeds that make
/// its tables and drive its run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InputSpec {
    /// `datagen` dataset name.
    pub dataset: &'static str,
    /// `datagen` scale factor.
    pub scale: f64,
    /// Seed of the generated tables.
    pub data_seed: u64,
    /// Seed of the engine and the simulated crowd.
    pub run_seed: u64,
}

/// A ready-to-run input: task, gold oracle and a fresh crowd platform.
pub struct Input {
    /// The matching task (its analysis layer not yet built).
    pub task: MatchTask,
    /// Gold standard, also the simulated crowd's truth.
    pub gold: GoldOracle,
    /// A fresh simulated crowd (no faults).
    pub platform: CrowdPlatform,
}

impl InputSpec {
    /// Generate the tables and build the task, gold oracle and platform.
    pub fn build(&self) -> Input {
        let ds = datagen::by_name(
            self.dataset,
            GenConfig {
                scale: self.scale,
                seed: self.data_seed,
            },
        )
        .expect("workload datasets are datagen names");
        let (task, gold) = bench::make_task(&ds);
        let platform =
            bench::make_faulty_platform(&ds, ERROR_RATE, self.run_seed, FaultConfig::default());
        Input {
            task,
            gold,
            platform,
        }
    }

    /// The engine every run of this input uses: paper parameters with
    /// t_B = 100 000, seeded by `run_seed`.
    pub fn engine(&self) -> Engine {
        Engine::new(bench::experiment_config()).with_seed(self.run_seed)
    }
}
