//! Driver behind `cosched cluster`: dimensionless workload specs for the
//! [`coschedule::cluster`] discrete-event simulator, deterministic
//! metrics/trace rendering, and conversion of the simulator's session-op
//! log into serve-protocol request lines for closed-loop replay through
//! `cosched serve` / `cosched client --requests`.
//!
//! Times are specified in **reference units**: one unit is the mean
//! full-machine solo execution time of the NPB-6 applications on the
//! spec's platform ([`reference_unit`]). `--rate 3` therefore means
//! "three jobs arrive per mean job length" regardless of the platform's
//! absolute speed, and `--horizon 8` simulates eight mean job lengths of
//! arrivals.

use std::str::FromStr;

use coschedule::cluster::{ClusterOutcome, ClusterSim, JobSpec, SessionOp};
use coschedule::error::Result;
use coschedule::model::{exec_time, Platform};
use coschedule::tune::TuneConfig;
use minijson::Json;
use workloads::arrivals::{jobs_from_arrivals, sample_arrivals, RateProfile};
use workloads::npb::npb6;

use crate::serve::protocol::app_to_json;

/// Which rate-profile family drives the arrivals (`--profile`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileKind {
    /// Homogeneous Poisson arrivals at the spec's mean rate.
    Constant,
    /// A 3-phase step: calm thirds around a middle third at 5.5× their
    /// rate (same mean as `Constant`).
    Step,
    /// A sinusoidal burst cycle, four bursts over the horizon, swinging
    /// between 0.25× and 1.75× the mean rate.
    Bursty,
}

impl ProfileKind {
    /// All kinds, in CLI order.
    pub const ALL: [ProfileKind; 3] = [
        ProfileKind::Constant,
        ProfileKind::Step,
        ProfileKind::Bursty,
    ];

    /// The CLI name (`constant`, `step`, `bursty`).
    pub fn name(self) -> &'static str {
        match self {
            ProfileKind::Constant => "constant",
            ProfileKind::Step => "step",
            ProfileKind::Bursty => "bursty",
        }
    }

    /// Materializes the profile in dimensionless time, holding the mean
    /// arrival rate at `rate` over `[0, horizon)` for every kind.
    pub fn profile(self, rate: f64, horizon: f64) -> RateProfile {
        match self {
            ProfileKind::Constant => RateProfile::Constant { rate },
            ProfileKind::Step => RateProfile::Piecewise {
                steps: vec![
                    (0.0, 0.25 * rate),
                    (horizon / 3.0, 2.5 * rate),
                    (2.0 * horizon / 3.0, 0.25 * rate),
                ],
            },
            ProfileKind::Bursty => RateProfile::Sinusoidal {
                base: 0.25 * rate,
                amplitude: 1.5 * rate,
                period: horizon / 4.0,
            },
        }
    }
}

impl FromStr for ProfileKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        ProfileKind::ALL
            .into_iter()
            .find(|kind| kind.name() == s)
            .ok_or_else(|| format!("unknown profile {s:?}; expected constant, step, or bursty"))
    }
}

/// Shape of one cluster simulation (`cosched cluster` flags).
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Rate-profile family (`--profile`).
    pub profile: ProfileKind,
    /// Mean arrival rate in jobs per reference unit (`--rate`).
    pub rate: f64,
    /// Arrival horizon in reference units (`--horizon`); jobs arriving
    /// before it still run to completion after it.
    pub horizon: f64,
    /// Root seed for arrivals, job profiles, and every solve (`--seed`).
    pub seed: u64,
    /// Registry solver re-solving on each event, `"auto"` included
    /// (`--solver`).
    pub solver: String,
    /// Tuner observation window, 0 = unbounded (`--window`; only
    /// meaningful with `--solver auto`).
    pub window: u64,
    /// The simulated machine.
    pub platform: Platform,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self {
            profile: ProfileKind::Constant,
            rate: 3.0,
            horizon: 8.0,
            seed: 0xC10,
            solver: "DominantMinRatio".to_string(),
            window: 0,
            platform: Platform::taihulight(),
        }
    }
}

/// One reference time unit: the mean full-machine solo execution time of
/// the NPB-6 applications on `platform` — the natural job-length scale
/// the dimensionless `--rate`/`--horizon` flags multiply.
pub fn reference_unit(platform: &Platform) -> f64 {
    let apps = npb6(&[0.05]);
    let total: f64 = apps
        .iter()
        .map(|app| exec_time(app, platform, platform.processors, 1.0))
        .sum();
    total / apps.len() as f64
}

/// A finished simulation: the generated jobs, the simulator outcome, and
/// the reference unit that converted the spec's dimensionless times.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRun {
    /// The generated job stream, in arrival order (absolute times).
    pub jobs: Vec<JobSpec>,
    /// The simulator's outcome.
    pub outcome: ClusterOutcome,
    /// Seconds per reference unit on the spec's platform.
    pub unit: f64,
}

/// Generates the seeded job stream for `spec` and replays it through
/// [`ClusterSim`].
///
/// Deterministic: the run is a pure function of the spec (same spec ⇒
/// byte-identical trace, ops, and rendered metrics).
///
/// # Errors
/// An unknown solver name, or any session error while simulating.
pub fn run(spec: &ClusterSpec) -> Result<ClusterRun> {
    let unit = reference_unit(&spec.platform);
    let profile = spec.profile.profile(spec.rate, spec.horizon);
    let mut arrivals = sample_arrivals(&profile, spec.horizon, spec.seed);
    for t in &mut arrivals {
        *t *= unit;
    }
    let jobs = jobs_from_arrivals(&arrivals, &npb6(&[0.05]), spec.seed);
    let mut sim = ClusterSim::new(spec.platform.clone(), spec.solver.clone(), spec.seed);
    if spec.window > 0 {
        sim = sim.with_tuner_config(TuneConfig {
            window: spec.window,
            ..Default::default()
        });
    }
    let outcome = sim.run(&jobs)?;
    Ok(ClusterRun {
        jobs,
        outcome,
        unit,
    })
}

/// Renders the run's aggregate metrics as deterministic `key=value`
/// lines (response times reported in reference units, so runs on
/// different platforms stay comparable).
pub fn render_metrics(run: &ClusterRun) -> String {
    use std::fmt::Write as _;
    let m = run.outcome.metrics;
    let unit = run.unit;
    let mut out = String::new();
    let _ = writeln!(out, "jobs={}", m.jobs);
    let _ = writeln!(out, "completed={}", m.completed);
    let _ = writeln!(out, "makespan_units={:.6e}", m.makespan / unit);
    let _ = writeln!(out, "mean_response_units={:.6e}", m.mean_response / unit);
    let _ = writeln!(out, "p50_response_units={:.6e}", m.p50_response / unit);
    let _ = writeln!(out, "p95_response_units={:.6e}", m.p95_response / unit);
    let _ = writeln!(out, "p99_response_units={:.6e}", m.p99_response / unit);
    let _ = writeln!(out, "utilization={:.6}", m.utilization);
    let _ = writeln!(out, "resolves={}", m.resolves);
    let _ = writeln!(out, "stale_departures={}", m.stale_departures);
    out
}

/// Converts the simulator's session-op log into serve-protocol request
/// lines — the closed-loop replay: feeding these to `cosched serve` (any
/// worker count) drives a server-side session through the identical
/// mutation/solve sequence, and with a deterministic registry solver the
/// responses are byte-identical across worker counts.
///
/// Solve lines carry `"schedule":false` so the comparison covers the
/// solver decisions (makespan bits, modes) without megabytes of
/// assignment echo.
pub fn request_trace(outcome: &ClusterOutcome) -> Vec<String> {
    outcome
        .ops
        .iter()
        .map(|op| {
            match op {
                SessionOp::Create { app, .. } => Json::obj([
                    ("op", Json::from("create")),
                    ("apps", Json::Arr(vec![app_to_json(app)])),
                ]),
                SessionOp::AddApp { id, app } => Json::obj([
                    ("op", Json::from("add_app")),
                    ("id", Json::from(*id)),
                    ("app", app_to_json(app)),
                ]),
                SessionOp::RemoveApp { id, index } => Json::obj([
                    ("op", Json::from("remove_app")),
                    ("id", Json::from(*id)),
                    ("index", Json::from(*index)),
                ]),
                SessionOp::Close { id } => {
                    Json::obj([("op", Json::from("close")), ("id", Json::from(*id))])
                }
                SessionOp::Solve { id, solver, seed } => Json::obj([
                    ("op", Json::from("solve")),
                    ("id", Json::from(*id)),
                    ("solver", Json::from(solver.as_str())),
                    ("seed", Json::from(*seed)),
                    ("schedule", Json::from(false)),
                ]),
            }
            .to_string()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::protocol::{handle_line, ServeState};

    fn small_spec() -> ClusterSpec {
        ClusterSpec {
            rate: 2.0,
            horizon: 4.0,
            ..Default::default()
        }
    }

    #[test]
    fn runs_are_byte_identical_under_one_seed() {
        let spec = small_spec();
        let a = run(&spec).unwrap();
        let b = run(&spec).unwrap();
        assert!(!a.jobs.is_empty());
        assert_eq!(a, b);
        assert_eq!(render_metrics(&a), render_metrics(&b));
        assert_eq!(a.outcome.trace, b.outcome.trace);
        // Different seed, different trace.
        let c = run(&ClusterSpec {
            seed: spec.seed + 1,
            ..spec
        })
        .unwrap();
        assert_ne!(a.outcome.trace, c.outcome.trace);
        // The windowed "auto" tuner on the bursty profile replays too.
        let bursty = ClusterSpec {
            profile: ProfileKind::Bursty,
            solver: "auto".to_string(),
            window: 8,
            ..small_spec()
        };
        assert_eq!(run(&bursty).unwrap(), run(&bursty).unwrap());
    }

    #[test]
    fn every_generated_job_completes() {
        for kind in ProfileKind::ALL {
            let spec = ClusterSpec {
                profile: kind,
                ..small_spec()
            };
            let r = run(&spec).unwrap();
            let m = r.outcome.metrics;
            assert!(m.jobs > 0, "{}", kind.name());
            assert_eq!(m.completed, m.jobs, "{}", kind.name());
            assert!(m.utilization > 0.0 && m.utilization <= 1.0 + 1e-12);
            assert!(m.p50_response <= m.p95_response && m.p95_response <= m.p99_response);
        }
    }

    #[test]
    fn op_log_replays_clean_through_the_serve_protocol() {
        let r = run(&small_spec()).unwrap();
        let lines = request_trace(&r.outcome);
        assert_eq!(lines.len(), r.outcome.ops.len());
        let mut state = ServeState::new();
        let mut solve_makespans = Vec::new();
        for line in &lines {
            let response = handle_line(&mut state, line);
            let v = Json::parse(&response).unwrap();
            assert_eq!(
                v.get("ok").and_then(Json::as_bool),
                Some(true),
                "replay rejected {line}: {response}"
            );
            if let Some(makespan) = v.get("makespan").and_then(Json::as_f64) {
                solve_makespans.push(makespan.to_bits());
            }
        }
        // The server-side session ends empty (last departure closes) and
        // re-solved exactly as often as the simulation did.
        assert_eq!(state.session().len(), 0);
        assert_eq!(solve_makespans.len() as u64, r.outcome.metrics.resolves);
    }

    #[test]
    fn profile_kinds_parse_and_keep_their_mean_rate() {
        for kind in ProfileKind::ALL {
            assert_eq!(kind.name().parse::<ProfileKind>().unwrap(), kind);
            // Riemann-sum the profile; the mean must sit at the spec rate.
            let profile = kind.profile(3.0, 12.0);
            let steps = 48_000;
            let mean = (0..steps)
                .map(|i| profile.rate_at((i as f64 + 0.5) * 12.0 / steps as f64))
                .sum::<f64>()
                / steps as f64;
            assert!(
                (mean - 3.0).abs() < 0.01,
                "{} mean rate {mean}",
                kind.name()
            );
        }
        assert!("poisson".parse::<ProfileKind>().is_err());
    }
}
