//! Arrival-stream generators for the cluster simulation: rate profiles
//! (constant, piecewise, sinusoidal-bursty) sampled into concrete
//! arrival times by Lewis–Shedler thinning on the deterministic shim
//! RNG, plus job generators pairing each arrival with an NPB-derived
//! application profile.
//!
//! Thinning simulates an inhomogeneous Poisson process with intensity
//! `λ(t)` by drawing a homogeneous candidate stream at the envelope rate
//! `λ_max = max_t λ(t)` (exponential gaps) and accepting each candidate
//! at `t` with probability `λ(t) / λ_max`. Two consequences the tests
//! pin: the accepted points are a subset of the candidate stream (so a
//! profile can never emit *more* arrivals than its envelope under the
//! same seed), and the whole stream is a pure function of
//! `(profile, horizon, seed)`.

use crate::rng::{child_seed, seeded_rng};
use coschedule::cluster::JobSpec;
use coschedule::model::Application;
use rand::RngExt;

/// Stream index (the `point` of [`child_seed`]) for the job-profile RNG,
/// kept disjoint from the arrival-time stream so changing the rate
/// profile never reshuffles the job profiles drawn per arrival rank.
const JOB_STREAM: u64 = 0xA881;

/// A time-varying arrival intensity `λ(t)` (jobs per unit time).
#[derive(Debug, Clone, PartialEq)]
pub enum RateProfile {
    /// Homogeneous Poisson arrivals: `λ(t) = rate`.
    Constant {
        /// Arrival intensity.
        rate: f64,
    },
    /// Piecewise-constant steps: `(start, rate)` pairs sorted by start
    /// time; the intensity before the first step is 0.
    Piecewise {
        /// `(start, rate)` change points, ascending by start.
        steps: Vec<(f64, f64)>,
    },
    /// Sinusoidal burst cycle:
    /// `λ(t) = base + amplitude · (1 + sin(2πt / period)) / 2` —
    /// oscillating between `base` and `base + amplitude` with one burst
    /// per `period`.
    Sinusoidal {
        /// Intensity floor.
        base: f64,
        /// Peak-over-floor swing.
        amplitude: f64,
        /// Burst cycle length.
        period: f64,
    },
}

impl RateProfile {
    /// `λ(t)`, clamped to be non-negative.
    pub fn rate_at(&self, t: f64) -> f64 {
        let rate = match self {
            RateProfile::Constant { rate } => *rate,
            RateProfile::Piecewise { steps } => steps
                .iter()
                .take_while(|&&(start, _)| start <= t)
                .last()
                .map_or(0.0, |&(_, rate)| rate),
            RateProfile::Sinusoidal {
                base,
                amplitude,
                period,
            } => base + amplitude * (1.0 + (2.0 * std::f64::consts::PI * t / period).sin()) / 2.0,
        };
        rate.max(0.0)
    }

    /// The thinning envelope `λ_max ≥ λ(t)` for all `t`.
    pub fn max_rate(&self) -> f64 {
        match self {
            RateProfile::Constant { rate } => rate.max(0.0),
            RateProfile::Piecewise { steps } => steps
                .iter()
                .map(|&(_, rate)| rate)
                .fold(0.0_f64, f64::max)
                .max(0.0),
            RateProfile::Sinusoidal {
                base,
                amplitude,
                period: _,
            } => (base + amplitude.max(0.0)).max(0.0),
        }
    }
}

/// Samples the arrival times of an inhomogeneous Poisson process with
/// intensity `profile` over `[0, horizon)` by Lewis–Shedler thinning.
///
/// Deterministic: the returned times are a pure function of
/// `(profile, horizon, seed)`, strictly increasing, and a subset of the
/// homogeneous candidate stream at `profile.max_rate()` under the same
/// seed (each candidate consumes exactly two RNG draws — gap and accept
/// — whether or not it is kept).
pub fn sample_arrivals(profile: &RateProfile, horizon: f64, seed: u64) -> Vec<f64> {
    let envelope = profile.max_rate();
    let mut arrivals = Vec::new();
    // NaN rates/horizons fall through to the empty stream too.
    let sane = envelope > 0.0 && horizon > 0.0;
    if !sane {
        return arrivals;
    }
    let mut rng = seeded_rng(seed);
    let mut t = 0.0_f64;
    loop {
        // `random::<f64>()` is in [0, 1); flip to (0, 1] so ln never sees 0.
        let gap = -(1.0 - rng.random::<f64>()).ln() / envelope;
        t += gap;
        if t >= horizon {
            return arrivals;
        }
        let accept: f64 = rng.random();
        if accept * envelope < profile.rate_at(t) {
            arrivals.push(t);
        }
    }
}

/// Pairs arrival times with applications from `table`: arrival rank `k`
/// runs `table[k mod len]` with its work re-scaled by a seeded factor in
/// `[0.7, 1.3)` — enough churn that no two jobs are identical, small
/// enough that instances stay within one tuner signature bucket most of
/// the time. Swapping the table mid-trace composes custom mixes (e.g. the
/// bench's drifting workload).
///
/// The work RNG stream is derived from `seed` independently of the
/// arrival-time stream, so the `k`-th job's application is the same
/// whichever rate profile produced the `k`-th arrival.
pub fn jobs_from_arrivals(arrivals: &[f64], table: &[Application], seed: u64) -> Vec<JobSpec> {
    let mut rng = seeded_rng(child_seed(seed, 0, JOB_STREAM));
    arrivals
        .iter()
        .enumerate()
        .map(|(k, &arrival)| {
            let mut app = table[k % table.len()].clone();
            app.work *= rng.random_range(0.7..1.3);
            app.name = format!("{}-{k}", app.name);
            JobSpec { arrival, app }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile_is_its_own_envelope() {
        let profile = RateProfile::Constant { rate: 2.5 };
        assert_eq!(profile.rate_at(0.0), 2.5);
        assert_eq!(profile.rate_at(1e9), 2.5);
        assert_eq!(profile.max_rate(), 2.5);
    }

    #[test]
    fn piecewise_steps_switch_at_their_start_times() {
        let profile = RateProfile::Piecewise {
            steps: vec![(0.0, 1.0), (10.0, 4.0), (20.0, 0.5)],
        };
        assert_eq!(profile.rate_at(-1.0), 0.0);
        assert_eq!(profile.rate_at(0.0), 1.0);
        assert_eq!(profile.rate_at(9.999), 1.0);
        assert_eq!(profile.rate_at(10.0), 4.0);
        assert_eq!(profile.rate_at(25.0), 0.5);
        assert_eq!(profile.max_rate(), 4.0);
    }

    #[test]
    fn sinusoidal_stays_within_its_envelope() {
        let profile = RateProfile::Sinusoidal {
            base: 1.0,
            amplitude: 3.0,
            period: 8.0,
        };
        for k in 0..200 {
            let t = k as f64 * 0.13;
            let rate = profile.rate_at(t);
            assert!(rate >= 1.0 - 1e-12 && rate <= profile.max_rate() + 1e-12);
        }
    }

    #[test]
    fn sampling_is_deterministic_and_ordered() {
        let profile = RateProfile::Sinusoidal {
            base: 0.5,
            amplitude: 2.0,
            period: 10.0,
        };
        let a = sample_arrivals(&profile, 50.0, 42);
        let b = sample_arrivals(&profile, 50.0, 42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| t > 0.0 && t < 50.0));
    }

    #[test]
    fn thinned_arrivals_are_a_subset_of_the_envelope_stream() {
        let profile = RateProfile::Piecewise {
            steps: vec![(0.0, 0.5), (20.0, 3.0), (40.0, 1.0)],
        };
        let envelope = RateProfile::Constant {
            rate: profile.max_rate(),
        };
        let thinned = sample_arrivals(&profile, 60.0, 7);
        let candidates = sample_arrivals(&envelope, 60.0, 7);
        assert!(thinned.len() <= candidates.len());
        assert!(
            thinned.iter().all(|t| candidates.contains(t)),
            "every accepted arrival must be one of the envelope candidates"
        );
    }

    #[test]
    fn jobs_cycle_the_npb_table_with_seeded_work_churn() {
        let profile = RateProfile::Constant { rate: 1.0 };
        let table = crate::npb::npb6(&[0.05]);
        let arrivals = sample_arrivals(&profile, 30.0, 11);
        let jobs = jobs_from_arrivals(&arrivals, &table, 11);
        assert_eq!(jobs, jobs_from_arrivals(&arrivals, &table, 11));
        assert!(!jobs.is_empty());
        for (k, job) in jobs.iter().enumerate() {
            let base = &table[k % table.len()];
            assert!(job.app.name.starts_with(base.name.as_str()));
            let factor = job.app.work / base.work;
            assert!((0.7..1.3).contains(&factor), "work factor {factor}");
        }
    }
}
