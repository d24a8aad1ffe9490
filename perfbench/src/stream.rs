//! The workloads and the seeded request streams they send.
//!
//! A stream is a pure function of the workload and the seed: the set-up
//! requests (every tenant's `create` and its cold `solve`), then an
//! unbounded sequence of reschedules. The TCP phases, the correctness
//! replay and the traced pass each build their own [`Stream`] from the
//! same seed and so send byte-identical requests.

use coschedule::model::Application;
use experiments::serve::{app_to_json, Durability};
use minijson::Json;
use rand::rngs::StdRng;
use rand::RngExt as _;
use workloads::{seeded_rng, Dataset, SeqFraction, NPB_TABLE};

/// Every solve runs the paper's main heuristic, without the per-app
/// schedule in the reply.
pub const SOLVER: &str = "DominantMinRatio";

/// One workload: the tenants it creates, its durability, and how many
/// reschedules a run sends per second of `--seconds`. A reschedule is an
/// `update_app` on one tenant and that tenant's `solve`.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub tenants: usize,
    pub apps: usize,
    pub dataset: Dataset,
    pub durability: Durability,
    /// Lock-step reschedules per second of `--seconds`, fixed rather than
    /// timed so that two commits run exactly the same requests.
    pub lockstep_per_s: u64,
    /// Pipelined reschedules per second of `--seconds`.
    pub pipelined_per_s: u64,
}

/// The workloads; why each was chosen is in `perfbench/README.md`.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "npb6_tenants",
        tenants: 64,
        apps: 6,
        dataset: Dataset::Npb6,
        durability: Durability::None,
        lockstep_per_s: 5_000,
        pipelined_per_s: 7_000,
    },
    Spec {
        name: "synth4096_logged",
        tenants: 4,
        apps: 4096,
        dataset: Dataset::NpbSynth,
        durability: Durability::Log,
        lockstep_per_s: 400,
        pipelined_per_s: 400,
    },
];

/// Requests one reschedule sends.
pub const STEP_REQUESTS: usize = 2;

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

/// A seeded request generator for one workload.
pub struct Stream {
    spec: &'static Spec,
    rng: StdRng,
    /// Reschedules generated so far.
    steps: u64,
}

impl Stream {
    pub fn new(spec: &'static Spec, seed: u64) -> Self {
        Self {
            spec,
            rng: seeded_rng(seed),
            steps: 0,
        }
    }

    /// The set-up requests: for each tenant in id order, its `create` and
    /// its first (cold) `solve`.
    pub fn setup(&mut self) -> Vec<String> {
        let mut requests = Vec::with_capacity(2 * self.spec.tenants);
        for tenant in 0..self.spec.tenants {
            let mut apps = self.spec.dataset.generate(
                self.spec.apps,
                SeqFraction::paper_default(),
                &mut self.rng,
            );
            if self.spec.dataset == Dataset::Npb6 {
                // NPB-6 rows are verbatim; vary the work so the tenants
                // are distinct instances.
                for app in &mut apps {
                    app.work *= self.rng.random_range(0.5..=1.5);
                }
            }
            requests.push(
                Json::obj([
                    ("op", Json::from("create")),
                    ("apps", Json::arr(apps.iter().map(app_to_json))),
                ])
                .to_string(),
            );
            requests.push(solve(tenant));
        }
        requests
    }

    /// The next reschedule: an `update_app`, then the tenant's `solve`.
    /// Tenants are visited round-robin.
    pub fn next_step(&mut self) -> Vec<String> {
        let tenant = (self.steps % self.spec.tenants as u64) as usize;
        let round = self.steps / self.spec.tenants as u64;
        self.steps += 1;
        let index = match self.spec.dataset {
            Dataset::Npb6 => self.rng.random_range(0..self.spec.apps),
            // A rotating index walks the whole instance.
            _ => (round as usize).wrapping_mul(7919) % self.spec.apps,
        };
        let app = self.fresh_app(index);
        let update = Json::obj([
            ("op", Json::from("mutate")),
            ("id", Json::from(tenant)),
            ("action", Json::from("update_app")),
            ("index", Json::from(index)),
            ("app", app_to_json(&app)),
        ]);
        vec![update.to_string(), solve(tenant)]
    }

    /// A replacement for the app at `index`, drawn like the workload's
    /// dataset on the NPB profile the index cycles to, under the name the
    /// dataset generator gave it.
    fn fresh_app(&mut self, index: usize) -> Application {
        let base = &NPB_TABLE[index % NPB_TABLE.len()];
        let seq = self.rng.random_range(0.01..=0.15);
        let (name, work) = match self.spec.dataset {
            Dataset::Npb6 => (
                base.name.to_string(),
                base.work * self.rng.random_range(0.5..=1.5),
            ),
            _ => (
                format!("{}-{index}", base.name),
                self.rng.random_range(1e8..=1e12),
            ),
        };
        Application::new(name, work, seq, base.access_freq, base.miss_rate_40mb)
    }
}

fn solve(tenant: usize) -> String {
    Json::obj([
        ("op", Json::from("solve")),
        ("id", Json::from(tenant)),
        ("solver", Json::from(SOLVER)),
        ("seed", Json::from(42u64)),
        ("schedule", Json::from(false)),
    ])
    .to_string()
}
