//! Baseline strategies of §6.3: AllProcCache, Fair, 0cache, RandomPart.
//!
//! The algorithm cores run on an [`Instance`](crate::solver::Instance)'s
//! struct-of-arrays [`EvalSet`] view with the [`EvalScratch`] owned by the
//! [`SolveCtx`](crate::solver::SolveCtx); callers reach them through
//! [`Strategy`](crate::algo::Strategy)'s [`Solver`](crate::solver::Solver)
//! implementation.

use crate::algo::outcome::Outcome;
use crate::error::Result;
use crate::eval::{EvalScratch, EvalSet};
use crate::model::Schedule;
use crate::theory::cache_alloc::optimal_cache_fractions_into;
use crate::theory::dominance::Partition;
use crate::theory::proc_alloc::equal_finish_split_eval;
use rand::{Rng, RngExt as _};

/// AllProcCache: no co-scheduling at all — applications run **sequentially**,
/// each with all `p` processors and the whole LLC. The reported makespan is
/// the sum of the individual execution times; the recorded per-application
/// assignment is `(p, 1)`.
pub(crate) fn all_proc_cache_core(eval: &EvalSet, scratch: &mut EvalScratch) -> Outcome {
    let n = eval.len();
    scratch.stats.record(n);
    Outcome {
        makespan: eval.sequential_makespan(),
        schedule: Schedule {
            assignments: (0..n)
                .map(|_| crate::model::Assignment::new(eval.processors(), 1.0))
                .collect(),
        },
        partition: Partition::all(n),
        concurrent: false,
        eval_stats: Default::default(),
        optimal: false,
    }
}

/// Fair: `p_i = p/n` processors and a cache share proportional to the access
/// frequency, `x_i = f_i / Σ_j f_j`. No equal-finish rebalancing.
pub(crate) fn fair_core(eval: &EvalSet, scratch: &mut EvalScratch) -> Outcome {
    let n = eval.len() as f64;
    let total_freq: f64 = eval.access_freqs().iter().sum();
    let cache: Vec<f64> = if total_freq > 0.0 {
        eval.access_freqs().iter().map(|f| f / total_freq).collect()
    } else {
        vec![1.0 / n; eval.len()]
    };
    let procs = vec![eval.processors() / n; eval.len()];
    let makespan = scratch.makespan(eval, &procs, &cache);
    Outcome {
        makespan,
        schedule: Schedule::from_parts(&procs, &cache),
        partition: Partition::all(eval.len()),
        concurrent: true,
        eval_stats: Default::default(),
        optimal: false,
    }
}

/// 0cache: nobody gets any cache (`x_i = 0`, every access misses); the
/// processors are split so that all applications finish simultaneously.
pub(crate) fn zero_cache_core(eval: &EvalSet, scratch: &mut EvalScratch) -> Result<Outcome> {
    let cache = vec![0.0; eval.len()];
    let ef = equal_finish_split_eval(eval, &cache, scratch)?;
    Ok(Outcome {
        makespan: ef.makespan,
        schedule: Schedule::from_parts(&ef.procs, &cache),
        partition: Partition::empty(),
        concurrent: true,
        eval_stats: Default::default(),
        optimal: false,
    })
}

/// RandomPart: a uniformly random subset of applications shares the cache
/// (each application is included with probability ½); their fractions use
/// the Theorem-3 closed form, and processors are split to equalise finish
/// times.
pub(crate) fn random_part_core<R: Rng + ?Sized>(
    eval: &EvalSet,
    rng: &mut R,
    scratch: &mut EvalScratch,
) -> Result<Outcome> {
    let members: Vec<usize> = (0..eval.len()).filter(|_| rng.random::<bool>()).collect();
    let partition = Partition::new(members);
    let mut cache = Vec::new();
    optimal_cache_fractions_into(eval.weights(), &partition, &mut cache);
    let ef = equal_finish_split_eval(eval, &cache, scratch)?;
    Ok(Outcome {
        makespan: ef.makespan,
        schedule: Schedule::from_parts(&ef.procs, &cache),
        partition,
        concurrent: true,
        eval_stats: Default::default(),
        optimal: false,
    })
}

#[cfg(test)]
mod tests {
    use crate::algo::{Outcome, Strategy};
    use crate::model::{sequential_makespan, Application, Platform};
    use crate::solver::{Instance, SolveCtx, Solver as _};
    use crate::theory::cache_alloc::optimal_cache_fractions_into;
    use crate::theory::dominance::Partition;
    use crate::theory::proc_alloc::equal_finish_split;

    fn apps() -> Vec<Application> {
        vec![
            Application::new("CG", 5.70e10, 0.05, 0.535, 6.59e-4),
            Application::new("BT", 2.10e11, 0.08, 0.829, 7.31e-3),
            Application::new("SP", 1.38e11, 0.02, 0.762, 1.51e-2),
            Application::new("MG", 1.23e10, 0.10, 0.540, 2.62e-2),
        ]
    }

    fn pf() -> Platform {
        Platform::taihulight()
    }

    fn solve(strategy: Strategy, apps: &[Application], ctx: &mut SolveCtx) -> Outcome {
        let inst = Instance::new(apps.to_vec(), pf()).unwrap();
        strategy.solve(&inst, ctx).unwrap()
    }

    #[test]
    fn all_proc_cache_sums_solo_runtimes() {
        let o = solve(Strategy::AllProcCache, &apps(), &mut SolveCtx::seeded(0));
        assert!(!o.concurrent);
        assert_eq!(o.schedule.len(), 4);
        let expected = sequential_makespan(&apps(), &pf());
        assert_eq!(o.makespan, expected);
    }

    #[test]
    fn fair_splits_processors_evenly_and_cache_by_frequency() {
        let a = apps();
        let o = solve(Strategy::Fair, &a, &mut SolveCtx::seeded(0));
        let total_f: f64 = a.iter().map(|x| x.access_freq).sum();
        for (i, asg) in o.schedule.assignments.iter().enumerate() {
            assert!((asg.procs - 64.0).abs() < 1e-12);
            assert!((asg.cache - a[i].access_freq / total_f).abs() < 1e-12);
        }
        assert!((o.schedule.total_cache() - 1.0).abs() < 1e-12);
        assert!(o.concurrent);
    }

    #[test]
    fn fair_makespan_matches_schedule_evaluation() {
        let a = apps();
        let o = solve(Strategy::Fair, &a, &mut SolveCtx::seeded(0));
        assert_eq!(
            o.makespan.to_bits(),
            o.schedule.makespan(&a, &pf()).to_bits()
        );
    }

    #[test]
    fn fair_handles_zero_frequencies() {
        let mut a = apps();
        for app in &mut a {
            app.access_freq = 0.0;
        }
        let o = solve(Strategy::Fair, &a, &mut SolveCtx::seeded(0));
        for asg in &o.schedule.assignments {
            assert!((asg.cache - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_cache_gives_no_cache_and_equalises() {
        let a = apps();
        let o = solve(Strategy::ZeroCache, &a, &mut SolveCtx::seeded(0));
        assert_eq!(o.schedule.total_cache(), 0.0);
        assert!(o.partition.is_empty());
        assert!(o.schedule.is_equal_finish(&a, &pf(), 1e-8));
        assert!((o.schedule.total_procs() - 256.0).abs() < 1e-6);
    }

    #[test]
    fn zero_cache_matches_full_miss_makespan() {
        // For perfectly parallel apps the 0cache makespan has a closed form:
        // (1/p) * sum of full-miss sequential costs.
        let a: Vec<Application> = apps()
            .into_iter()
            .map(|x| x.with_seq_fraction(0.0))
            .collect();
        let o = solve(Strategy::ZeroCache, &a, &mut SolveCtx::seeded(0));
        let expected: f64 = a
            .iter()
            .map(|x| crate::model::seq_cost_full_miss(x, &pf()))
            .sum::<f64>()
            / 256.0;
        assert!((o.makespan - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn random_part_is_feasible_and_equal_finish() {
        let a = apps();
        let mut ctx = SolveCtx::seeded(42);
        for _ in 0..20 {
            let o = solve(Strategy::RandomPart, &a, &mut ctx);
            o.schedule.validate(&a, &pf()).unwrap();
            assert!(o.schedule.is_equal_finish(&a, &pf(), 1e-8));
        }
    }

    #[test]
    fn random_part_partition_varies_with_seed() {
        let a = apps();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..20 {
            let o = solve(Strategy::RandomPart, &a, &mut SolveCtx::seeded(seed));
            seen.insert(o.partition.members().to_vec());
        }
        assert!(seen.len() > 1, "partitions never varied");
    }

    #[test]
    fn public_entry_points_report_their_evaluation_work() {
        let a = apps();
        let mut ctx = SolveCtx::seeded(0);
        for o in [
            solve(Strategy::AllProcCache, &a, &mut ctx),
            solve(Strategy::Fair, &a, &mut ctx),
            solve(Strategy::ZeroCache, &a, &mut ctx),
            solve(Strategy::RandomPart, &a, &mut ctx),
        ] {
            assert!(o.eval_stats.kernel_calls > 0);
            assert!(o.eval_stats.apps_evaluated >= a.len() as u64);
        }
    }

    #[test]
    fn zero_cache_never_beats_a_cached_equal_finish_split() {
        // Giving the whole cache via Theorem 3 to everyone can only help
        // relative to no cache at all (same proc-allocation machinery).
        let a = apps();
        let inst = Instance::new(a.clone(), pf()).unwrap();
        let part = Partition::all(a.len());
        let mut x = Vec::new();
        optimal_cache_fractions_into(inst.eval().weights(), &part, &mut x);
        let cached = equal_finish_split(&a, &pf(), &x).unwrap().makespan;
        let zc = solve(Strategy::ZeroCache, &a, &mut SolveCtx::seeded(0)).makespan;
        assert!(cached <= zc);
    }
}
