//! Discrete-time co-execution engine.
//!
//! Executes a [`Schedule`] decided by the `coschedule` algorithms on a
//! *dynamic* substrate: every application issues real memory references
//! against a way-partitioned (or shared, contended) LLC built from
//! `cachesim`, and virtual time advances per operation exactly as in the
//! paper's cost model — one unit per operation plus `f_i` accesses, each
//! paying `ls` and, on an LLC miss, `ll`.
//!
//! Each application's reference stream is a Pareto reuse-distance trace
//! calibrated so that its miss rate with the **whole** LLC equals the
//! model's `d_i` and follows the power law `d_i / x^α` under a fraction
//! `x` — i.e. the simulator reproduces Eq. 1 mechanically rather than by
//! formula, which is what makes the validation in [`crate::validate`]
//! meaningful.

use cachesim::cache::CacheConfig;
use cachesim::clos::{ClosConfig, ClosTable};
use cachesim::partition::{PartitionedCache, WayMask};
use cachesim::policy::Policy;
use cachesim::trace::{Pattern, TraceGenerator, LINE_SIZE};
use coschedule::model::{Application, Platform, Schedule};

/// Configuration of the simulated machine and scaling.
#[derive(Debug, Clone)]
pub struct CoSimConfig {
    /// Simulated LLC capacity in cache lines (the model's `Cs` maps to
    /// this; fractions of the real LLC become fractions of these lines).
    pub llc_lines: u64,
    /// LLC associativity (partition resolution; ≤ 64).
    pub llc_ways: usize,
    /// Replacement policy of the LLC.
    pub policy: Policy,
    /// Scale factor applied to application work: `ops_sim = w_i · scale`.
    /// Keep `ops_sim` in the 10⁴–10⁶ range for fast runs.
    pub work_scale: f64,
    /// Operations executed per scheduling block (time-interleaving
    /// granularity; only observable in shared mode).
    pub block_ops: u64,
    /// Enforce way masks (`true` = cache partitioning as decided by the
    /// schedule; `false` = fully shared LLC, co-runners interfere).
    pub enforce_partitions: bool,
    /// RNG seed for the reference streams.
    pub seed: u64,
}

impl Default for CoSimConfig {
    fn default() -> Self {
        Self {
            llc_lines: 4096,
            llc_ways: 64,
            policy: Policy::Lru,
            work_scale: 1e-6,
            block_ops: 256,
            enforce_partitions: true,
            seed: 0x0C05_C4ED,
        }
    }
}

/// Result of one co-execution.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Virtual completion time of each application.
    pub completion_times: Vec<f64>,
    /// Simulated makespan (`max` of completion times).
    pub makespan: f64,
    /// Measured LLC miss rate per application.
    pub miss_rates: Vec<f64>,
    /// The way-rounded cache fraction each application effectively held.
    pub effective_fractions: Vec<f64>,
}

struct AppState {
    /// Remaining per-processor operations, `Fl_i(p_i)` scaled.
    remaining_ops: f64,
    /// Fractional-access accumulator (`f_i` accesses per op).
    access_carry: f64,
    /// Virtual clock.
    clock: f64,
    generator: TraceGenerator,
    /// Base offset making this application's address space disjoint from
    /// the others' (the paper's model assumes no data sharing).
    addr_base: u64,
    done: bool,
}

/// The co-execution simulator.
pub struct CoSimulator {
    config: CoSimConfig,
    llc: PartitionedCache,
    apps: Vec<Application>,
    states: Vec<AppState>,
    platform: Platform,
    fractions: Vec<f64>,
}

impl CoSimulator {
    /// Prepares a simulation of `schedule` for `apps` on `platform`.
    ///
    /// Cache fractions are mapped to way masks
    /// (`ways_i = round(x_i · ways)`), so the effective fraction is the
    /// way-rounded one reported in [`SimOutcome::effective_fractions`].
    ///
    /// # Panics
    /// Panics if the schedule length does not match the applications.
    pub fn new(
        apps: &[Application],
        platform: &Platform,
        schedule: &Schedule,
        config: CoSimConfig,
    ) -> Self {
        assert_eq!(
            schedule.len(),
            apps.len(),
            "schedule/application length mismatch"
        );
        let fractions: Vec<f64> = schedule.assignments.iter().map(|a| a.cache).collect();
        let llc_config = CacheConfig {
            size_bytes: config.llc_lines * LINE_SIZE,
            line_size: LINE_SIZE,
            ways: config.llc_ways,
            policy: config.policy,
        };
        let llc = if config.enforce_partitions {
            // Largest-remainder apportionment of ways to fractions — the
            // same rules a CAT CLOS table enforces (contiguous, disjoint).
            let clos = ClosTable::from_fractions(
                ClosConfig {
                    ways: config.llc_ways,
                    max_clos: apps.len().max(16),
                    min_ways: 1,
                },
                &fractions,
            )
            .expect("fractions within budget yield a valid CLOS table");
            PartitionedCache::new(llc_config, clos.masks().to_vec(), true)
        } else {
            let full = WayMask::contiguous(0, config.llc_ways);
            PartitionedCache::new(llc_config, vec![full; apps.len()], false)
        };

        let states = apps
            .iter()
            .zip(&schedule.assignments)
            .enumerate()
            .map(|(i, (app, asg))| {
                let d = platform.full_cache_miss_rate(app);
                // Calibrate the Pareto stream: miss(C_full) = d  ⇒
                // scale = C_full · d^{1/θ}, θ = α.
                let scale_lines = config.llc_lines as f64 * d.powf(1.0 / platform.alpha);
                let pattern = Pattern::pareto(platform.alpha, scale_lines.max(1e-6));
                let work = (app.work * config.work_scale).max(1.0);
                assert!(
                    work <= 5e7,
                    "application '{}' maps to {work:.0} simulated ops; \
                     lower CoSimConfig::work_scale (op-level simulation \
                     is intended for 1e4-1e6 ops per application)",
                    app.name
                );
                let per_proc_ops = if asg.procs > 0.0 {
                    app.seq_fraction * work + (1.0 - app.seq_fraction) * work / asg.procs
                } else {
                    f64::INFINITY
                };
                AppState {
                    remaining_ops: per_proc_ops,
                    access_carry: 0.0,
                    clock: 0.0,
                    generator: TraceGenerator::new(
                        pattern,
                        config.seed.wrapping_add(i as u64 * 0x9E37),
                    ),
                    addr_base: (i as u64 + 1) << 50,
                    done: false,
                }
            })
            .collect();

        Self {
            config,
            llc,
            apps: apps.to_vec(),
            states,
            platform: platform.clone(),
            fractions,
        }
    }

    /// Runs every application to completion and reports the outcome.
    ///
    /// Applications whose schedule grants no processors never execute:
    /// they are reported with an infinite completion time (matching
    /// `Exe(0, x) = ∞` in the analytic model) instead of stalling the
    /// simulation.
    ///
    /// Applications are interleaved in virtual-time order (smallest clock
    /// first), in blocks of [`CoSimConfig::block_ops`] operations. Under
    /// enforced partitioning the interleaving is immaterial — partitions
    /// cannot touch each other's ways; in shared mode it models true
    /// concurrency.
    pub fn run(mut self) -> SimOutcome {
        // Zero-processor applications can never finish; park them with an
        // infinite clock up front so the laggard loop terminates.
        for state in &mut self.states {
            if state.remaining_ops.is_infinite() {
                state.clock = f64::INFINITY;
                state.done = true;
            }
        }
        // Repeatedly advance the laggard application still running.
        while let Some(idx) = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.done)
            .min_by(|a, b| {
                a.1.clock
                    .partial_cmp(&b.1.clock)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
        {
            self.step(idx);
        }
        let completion_times: Vec<f64> = self.states.iter().map(|s| s.clock).collect();
        let makespan = completion_times.iter().copied().fold(0.0, f64::max);
        let miss_rates = (0..self.apps.len())
            .map(|i| self.llc.partition_stats(i).miss_rate())
            .collect();
        let ways = self.config.llc_ways as f64;
        let effective_fractions = if self.config.enforce_partitions {
            (0..self.apps.len())
                .map(|i| f64::from(self.llc.mask(i).ways()) / ways)
                .collect()
        } else {
            self.fractions.clone()
        };
        SimOutcome {
            completion_times,
            makespan,
            miss_rates,
            effective_fractions,
        }
    }

    fn step(&mut self, idx: usize) {
        let app = &self.apps[idx];
        let (ls, ll) = (self.platform.latency_cache, self.platform.latency_mem);
        let state = &mut self.states[idx];
        let block = (self.config.block_ops as f64).min(state.remaining_ops.ceil());
        let mut cost = 0.0;
        let mut ops_done = 0.0;
        while ops_done < block && state.remaining_ops > 0.0 {
            cost += 1.0; // the computing operation itself
            state.access_carry += app.access_freq;
            while state.access_carry >= 1.0 {
                state.access_carry -= 1.0;
                let addr = state.addr_base | state.generator.next_address();
                let hit = self.llc.access(idx, addr).is_hit();
                cost += ls + if hit { 0.0 } else { ll };
            }
            state.remaining_ops -= 1.0;
            ops_done += 1.0;
        }
        state.clock += cost;
        if state.remaining_ops <= 0.0 {
            state.done = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coschedule::model::Assignment;

    fn platform() -> Platform {
        // A small platform whose d_i values are large enough for misses to
        // matter: Cs such that d = m0 * (C0/Cs)^0.5 is ~0.1.
        Platform {
            processors: 8.0,
            cache_size: 256e6,
            ref_cache_size: 40e6,
            latency_cache: 0.17,
            latency_mem: 1.0,
            alpha: 0.5,
        }
    }

    fn app(name: &str, w: f64, f: f64, m0: f64) -> Application {
        Application::perfectly_parallel(name, w, f, m0)
    }

    fn schedule(parts: &[(f64, f64)]) -> Schedule {
        Schedule {
            assignments: parts.iter().map(|&(p, x)| Assignment::new(p, x)).collect(),
        }
    }

    #[test]
    fn single_app_completes_with_expected_op_count() {
        let apps = vec![app("A", 1e6, 0.0, 0.1)];
        let sched = schedule(&[(1.0, 1.0)]);
        let config = CoSimConfig {
            work_scale: 1e-2, // 10^4 ops
            ..CoSimConfig::default()
        };
        let out = CoSimulator::new(&apps, &platform(), &sched, config).run();
        // f = 0: cost is exactly one unit per op.
        assert!((out.makespan - 1e4).abs() < 1.0, "{}", out.makespan);
    }

    #[test]
    fn access_costs_accumulate() {
        let apps = vec![app("A", 1e6, 0.5, 0.0)];
        let sched = schedule(&[(1.0, 1.0)]);
        let config = CoSimConfig {
            work_scale: 1e-2,
            ..CoSimConfig::default()
        };
        let out = CoSimulator::new(&apps, &platform(), &sched, config).run();
        // m0 = 0: no misses beyond cold ones; cost ≈ ops · (1 + 0.5·0.17).
        let expected = 1e4 * (1.0 + 0.5 * 0.17);
        assert!(
            (out.makespan - expected).abs() / expected < 0.02,
            "{} vs {expected}",
            out.makespan
        );
    }

    #[test]
    fn more_processors_finish_faster() {
        let apps = vec![app("A", 1e7, 0.3, 0.05)];
        let mk = |procs: f64| {
            let config = CoSimConfig {
                work_scale: 1e-2,
                ..CoSimConfig::default()
            };
            CoSimulator::new(&apps, &platform(), &schedule(&[(procs, 1.0)]), config)
                .run()
                .makespan
        };
        let t1 = mk(1.0);
        let t4 = mk(4.0);
        assert!((t1 / t4 - 4.0).abs() < 0.1, "speedup {}", t1 / t4);
    }

    #[test]
    fn effective_fractions_are_way_rounded() {
        let apps = vec![app("A", 1e5, 0.5, 0.1), app("B", 1e5, 0.5, 0.1)];
        let sched = schedule(&[(1.0, 0.30), (1.0, 0.70)]);
        let config = CoSimConfig {
            llc_ways: 10,
            work_scale: 1e-2,
            ..CoSimConfig::default()
        };
        let out = CoSimulator::new(&apps, &platform(), &sched, config).run();
        assert!((out.effective_fractions[0] - 0.3).abs() < 1e-12);
        assert!((out.effective_fractions[1] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn partitioned_beats_shared_for_cache_hungry_corunners() {
        // Two applications with working sets that each fit in half the LLC
        // but trash each other when sharing.
        let apps = vec![app("A", 4e6, 0.8, 0.3), app("B", 4e6, 0.8, 0.3)];
        let sched = schedule(&[(4.0, 0.5), (4.0, 0.5)]);
        let run = |enforce: bool| {
            let config = CoSimConfig {
                work_scale: 2e-2,
                enforce_partitions: enforce,
                ..CoSimConfig::default()
            };
            CoSimulator::new(&apps, &platform(), &sched, config).run()
        };
        let part = run(true);
        let shared = run(false);
        assert!(
            part.miss_rates[0] <= shared.miss_rates[0] + 0.02,
            "partitioned {} vs shared {}",
            part.miss_rates[0],
            shared.miss_rates[0]
        );
    }

    #[test]
    fn zero_cache_fraction_bypasses_and_misses_everything() {
        let apps = vec![app("A", 1e6, 0.5, 0.2)];
        let sched = schedule(&[(1.0, 0.0)]);
        let config = CoSimConfig {
            work_scale: 1e-2,
            ..CoSimConfig::default()
        };
        let out = CoSimulator::new(&apps, &platform(), &sched, config).run();
        assert!(out.miss_rates[0] > 0.999, "{}", out.miss_rates[0]);
        // Every access pays ls + ll.
        let expected = 1e4 * (1.0 + 0.5 * (0.17 + 1.0));
        assert!((out.makespan - expected).abs() / expected < 0.02);
    }

    #[test]
    fn reproducible_under_seed() {
        let apps = vec![app("A", 1e6, 0.7, 0.2), app("B", 2e6, 0.4, 0.1)];
        let sched = schedule(&[(2.0, 0.5), (6.0, 0.5)]);
        let mk = || {
            let config = CoSimConfig {
                work_scale: 1e-2,
                ..CoSimConfig::default()
            };
            CoSimulator::new(&apps, &platform(), &sched, config).run()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn zero_processor_app_reports_infinite_time_without_hanging() {
        let apps = vec![app("A", 1e6, 0.2, 0.1), app("B", 1e6, 0.2, 0.1)];
        let sched = schedule(&[(2.0, 0.5), (0.0, 0.5)]);
        let config = CoSimConfig {
            work_scale: 1e-2,
            ..CoSimConfig::default()
        };
        let out = CoSimulator::new(&apps, &platform(), &sched, config).run();
        assert!(out.completion_times[0].is_finite());
        assert!(out.completion_times[1].is_infinite());
        assert!(out.makespan.is_infinite());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_schedule_panics() {
        let apps = vec![app("A", 1e6, 0.5, 0.1)];
        let sched = schedule(&[(1.0, 1.0), (1.0, 0.0)]);
        let _ = CoSimulator::new(&apps, &platform(), &sched, CoSimConfig::default());
    }
}
