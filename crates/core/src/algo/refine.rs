//! Speedup-profile-aware refinement — the paper's stated future work
//! (§7: "extending the heuristics that account for the speedup profile for
//! both processor and cache allocation").
//!
//! The §5 heuristics pick the cache split as if applications were
//! perfectly parallel (Theorem-3 weights `(w f d)^{1/(α+1)}`), then fit
//! processors around it. For Amdahl profiles that split is no longer
//! stationary: differentiating the equal-finish-time condition
//! `Σ_j (1-s_j) / (K/c_j - s_j) = p` with respect to the fractions shows
//! the first-order optimal split solves
//!
//! ```text
//! x_i ∝ (μ_i · w_i f_i d_i)^{1/(α+1)},   μ_i = p_i² / ((1 - s_i) c_i²)
//! ```
//!
//! where `p_i` and `c_i` come from the current iterate. This module runs
//! that coordinate descent — re-weighted Theorem-3 split, then the §5
//! bisection for processors — until the makespan stops improving.

use crate::error::Result;
use crate::eval::{EvalScratch, EvalSet};
use crate::model::Schedule;
use crate::theory::dominance::Partition;
use crate::theory::proc_alloc::equal_finish_split_eval;
use crate::REL_TOL;

/// Outcome of the refinement loop, with convergence diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Refined {
    /// Final makespan.
    pub makespan: f64,
    /// Final schedule.
    pub schedule: Schedule,
    /// Makespan after each iteration (index 0 = the §5 starting point).
    pub trajectory: Vec<f64>,
}

/// Refines a §5 schedule (`partition` + `cache` + equal-finish processors)
/// by alternating the re-weighted cache split with the processor
/// bisection, for at most `max_iters` rounds.
///
/// Monotone by construction: an iterate is only accepted if it improves
/// the makespan, so the result is never worse than the input split. For
/// perfectly parallel applications the starting point is already
/// stationary (`μ_i ∝ 1` under Lemma 2) and the loop exits immediately.
///
/// Each descent iteration costs two batched kernel calls on the
/// struct-of-arrays view (the member sequential costs for the
/// re-weighting, and the bisection input of the candidate split), with
/// buffers reused from `scratch`.
pub fn refine(
    eval: &EvalSet,
    partition: &Partition,
    cache: Vec<f64>,
    max_iters: usize,
    scratch: &mut EvalScratch,
) -> Result<Refined> {
    let alpha = eval.alpha();
    let mut best_cache = cache;
    let mut best = equal_finish_split_eval(eval, &best_cache, scratch)?;
    let mut trajectory = vec![best.makespan];

    for _ in 0..max_iters {
        // Re-weight Theorem 3 with the sensitivity factors of the current
        // iterate. The member costs land in `scratch.times` so the
        // candidate bisection below is free to clobber `scratch.costs`.
        eval.seq_costs_into(&best_cache, &mut scratch.times);
        scratch.stats.record(eval.len());
        scratch.weights.clear();
        scratch.weights.resize(eval.len(), 0.0);
        let mut total = 0.0;
        for &i in partition.members() {
            let c = scratch.times[i];
            let p_i = best.procs[i];
            let mu = p_i * p_i / ((1.0 - eval.seq_fractions()[i]).max(1e-12) * c * c);
            let base = eval.work()[i] * eval.access_freqs()[i] * eval.d()[i];
            scratch.weights[i] = (mu * base).powf(1.0 / (alpha + 1.0));
            total += scratch.weights[i];
        }
        if total <= 0.0 {
            break;
        }
        let candidate_cache: Vec<f64> = scratch.weights.iter().map(|w| w / total).collect();
        let candidate = equal_finish_split_eval(eval, &candidate_cache, scratch)?;
        let improved = candidate.makespan < best.makespan * (1.0 - REL_TOL.max(1e-14));
        trajectory.push(candidate.makespan.min(best.makespan));
        if improved {
            best = candidate;
            best_cache = candidate_cache;
        } else {
            break;
        }
    }
    Ok(Refined {
        makespan: best.makespan,
        schedule: Schedule::from_parts(&best.procs, &best_cache),
        trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dominant::{dominant_partition, BuildOrder};
    use crate::algo::Choice;
    use crate::model::{Application, Platform};
    use crate::theory::cache_alloc::optimal_cache_fractions_into;
    use crate::theory::proc_alloc::equal_finish_split;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn platform() -> Platform {
        Platform::taihulight()
    }

    fn instance(seed: u64, n: usize, s_max: f64) -> Vec<Application> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                Application::new(
                    format!("T{i}"),
                    10f64.powf(rng.random_range(9.0..12.0)),
                    if s_max > 0.0 {
                        rng.random_range(0.0..s_max)
                    } else {
                        0.0
                    },
                    rng.random_range(0.3..0.9),
                    10f64.powf(rng.random_range(-3.0..-1.0)),
                )
            })
            .collect()
    }

    fn start(apps: &[Application], pf: &Platform) -> (EvalSet, Partition, Vec<f64>) {
        let eval = EvalSet::of(apps, pf);
        let mut rng = StdRng::seed_from_u64(0);
        let (part, _) = dominant_partition(&eval, BuildOrder::Forward, Choice::MinRatio, &mut rng);
        let mut cache = Vec::new();
        optimal_cache_fractions_into(eval.weights(), &part, &mut cache);
        (eval, part, cache)
    }

    #[test]
    fn never_worse_than_the_heuristic_start() {
        for seed in 0..10 {
            let apps = instance(seed, 8, 0.3);
            let pf = platform();
            let (eval, part, cache) = start(&apps, &pf);
            let base = equal_finish_split(&apps, &pf, &cache).unwrap().makespan;
            let refined = refine(&eval, &part, cache, 50, &mut EvalScratch::new()).unwrap();
            assert!(
                refined.makespan <= base * (1.0 + 1e-12),
                "seed {seed}: refinement regressed {base} -> {}",
                refined.makespan
            );
        }
    }

    #[test]
    fn trajectory_is_monotone_nonincreasing() {
        let apps = instance(3, 10, 0.4);
        let pf = platform();
        let (eval, part, cache) = start(&apps, &pf);
        let refined = refine(&eval, &part, cache, 50, &mut EvalScratch::new()).unwrap();
        for w in refined.trajectory.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12), "{:?}", refined.trajectory);
        }
    }

    #[test]
    fn perfectly_parallel_start_is_already_stationary() {
        // With s = 0 the Lemma-2 split makes mu_i constant across members,
        // so the re-weighted split equals Theorem 3 and the loop stops
        // after one non-improving probe.
        let apps = instance(5, 6, 0.0);
        let pf = platform();
        let (eval, part, cache) = start(&apps, &pf);
        let base = equal_finish_split(&apps, &pf, &cache).unwrap().makespan;
        let refined = refine(&eval, &part, cache, 50, &mut EvalScratch::new()).unwrap();
        assert!((refined.makespan - base).abs() / base < 1e-9);
        assert!(refined.trajectory.len() <= 2);
    }

    #[test]
    fn improves_high_seq_fraction_instances() {
        // With strongly heterogeneous Amdahl profiles the perfectly
        // parallel weights are measurably suboptimal; refinement should
        // find an improvement on at least some instances.
        let mut improved_any = false;
        for seed in 0..20 {
            let apps = instance(100 + seed, 8, 0.5);
            let pf = platform();
            let (eval, part, cache) = start(&apps, &pf);
            let base = equal_finish_split(&apps, &pf, &cache).unwrap().makespan;
            let refined = refine(&eval, &part, cache, 50, &mut EvalScratch::new()).unwrap();
            if refined.makespan < base * (1.0 - 1e-6) {
                improved_any = true;
            }
        }
        assert!(improved_any, "refinement never improved any instance");
    }

    #[test]
    fn schedule_remains_feasible_and_equal_finish() {
        let apps = instance(7, 9, 0.3);
        let pf = platform();
        let (eval, part, cache) = start(&apps, &pf);
        let refined = refine(&eval, &part, cache, 50, &mut EvalScratch::new()).unwrap();
        refined.schedule.validate(&apps, &pf).unwrap();
        assert!(refined.schedule.is_equal_finish(&apps, &pf, 1e-6));
    }

    #[test]
    fn empty_partition_is_a_no_op() {
        let apps = instance(9, 4, 0.2);
        let pf = platform();
        let eval = EvalSet::of(&apps, &pf);
        let part = Partition::empty();
        let cache = vec![0.0; apps.len()];
        let base = equal_finish_split(&apps, &pf, &cache).unwrap().makespan;
        let refined = refine(&eval, &part, cache, 50, &mut EvalScratch::new()).unwrap();
        assert_eq!(refined.makespan, base);
    }
}
