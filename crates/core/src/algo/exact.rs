//! Reference solvers by exhaustive subset enumeration.
//!
//! For **perfectly parallel** applications the dominance theory of §4 makes
//! enumeration exact: the optimum of CoSchedCache is attained on a dominant
//! partition with Theorem-3 cache fractions (Theorems 2–3), so scanning the
//! `2^n` subsets and keeping the best dominant one yields the true optimum.
//! This gives the test-suite a ground truth to certify heuristic gaps
//! against, and an upper bound (`best_partition`) for Amdahl profiles.
//!
//! Both enumerators are the **reference oracle, n ≤ 24** ([`MAX_EXACT_APPS`]):
//! production code solves through
//! [`bnb::branch_and_bound`](super::bnb::branch_and_bound), which returns
//! the bit-identical optimum without scanning `2^n` subsets, and the
//! branch-and-bound tests and benches certify it against these scans.

use crate::error::{CoschedError, Result};
use crate::eval::EvalScratch;
use crate::solver::Instance;
use crate::theory::cache_alloc::optimal_cache_fractions_into;
use crate::theory::dominance::{is_dominant, Partition};
use crate::theory::objective::partition_objective_eval;
use crate::theory::proc_alloc::equal_finish_makespan_eval;

/// Largest instance the enumerators accept (`2^n` subsets).
pub const MAX_EXACT_APPS: usize = 24;

/// Outcome of an exact / exhaustive solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactSolution {
    /// The best cache-sharing subset found.
    pub partition: Partition,
    /// Its optimal cache fractions (Theorem 3).
    pub cache: Vec<f64>,
    /// The resulting makespan.
    pub makespan: f64,
}

fn check_size(instance: &Instance) -> Result<()> {
    if instance.len() > MAX_EXACT_APPS {
        return Err(CoschedError::InstanceTooLarge {
            n: instance.len(),
            limit: MAX_EXACT_APPS,
        });
    }
    Ok(())
}

fn subsets(n: usize) -> impl Iterator<Item = Partition> {
    (0u64..(1u64 << n))
        .map(move |mask| Partition::new((0..n).filter(|i| mask >> i & 1 == 1).collect()))
}

/// Exact optimum for perfectly parallel applications (`s_i = 0` for all),
/// by the §4 characterisation: minimum of the Lemma-3 objective over all
/// **dominant** partitions.
///
/// Returns an error if some application is not perfectly parallel, or
/// [`CoschedError::InstanceTooLarge`] if `n >` [`MAX_EXACT_APPS`].
pub fn exact_perfectly_parallel(instance: &Instance) -> Result<ExactSolution> {
    check_size(instance)?;
    let apps = instance.apps();
    if let Some(i) = apps.iter().position(|a| !a.is_perfectly_parallel()) {
        return Err(CoschedError::InvalidApplication {
            index: i,
            reason: "exact solver requires perfectly parallel applications (s = 0)".into(),
        });
    }
    let eval = instance.eval();
    let mut scratch = EvalScratch::new();
    let mut best: Option<(Partition, f64)> = None;
    for partition in subsets(apps.len()) {
        if !is_dominant(eval, &partition) {
            continue;
        }
        let makespan = partition_objective_eval(eval, &partition, &mut scratch);
        if best.as_ref().is_none_or(|&(_, b)| makespan < b) {
            best = Some((partition, makespan));
        }
    }
    let (partition, makespan) =
        best.ok_or_else(|| CoschedError::NoFeasibleMakespan("no dominant partition".into()))?;
    let mut cache = Vec::new();
    optimal_cache_fractions_into(eval.weights(), &partition, &mut cache);
    Ok(ExactSolution {
        partition,
        cache,
        makespan,
    })
}

/// Exhaustive search over **all** sharing subsets for general Amdahl
/// applications: for each subset, Theorem-3 fractions + equal-finish-time
/// processor split. Not provably optimal (Theorem 3 only holds for `s = 0`)
/// but a strong reference the heuristics can be compared against.
///
/// # Errors
/// [`CoschedError::InstanceTooLarge`] if `n >` [`MAX_EXACT_APPS`].
pub fn best_partition(instance: &Instance) -> Result<ExactSolution> {
    check_size(instance)?;
    let eval = instance.eval();
    let mut scratch = EvalScratch::new();
    let mut fractions = Vec::new();
    let mut best: Option<(Partition, f64)> = None;
    for partition in subsets(instance.len()) {
        // Theorem-3 fractions and the bisection run on reusable buffers
        // (the Partition itself still allocates its member list), and the
        // processor split is only materialised for the winner below.
        optimal_cache_fractions_into(eval.weights(), &partition, &mut fractions);
        let makespan = equal_finish_makespan_eval(eval, &fractions, &mut scratch)?;
        if best.as_ref().is_none_or(|&(_, b)| makespan < b) {
            best = Some((partition, makespan));
        }
    }
    let (partition, makespan) = best.ok_or(CoschedError::EmptyInstance)?;
    optimal_cache_fractions_into(eval.weights(), &partition, &mut fractions);
    Ok(ExactSolution {
        partition,
        cache: fractions,
        makespan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{BuildOrder, Choice, Strategy};
    use crate::model::{Application, Platform};
    use crate::solver::{SolveCtx, Solver as _};
    use crate::theory::objective::partition_objective;
    use crate::theory::proc_alloc::equal_finish_split;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    fn pf() -> Platform {
        Platform::taihulight()
    }

    fn inst(apps: &[Application], platform: &Platform) -> Instance {
        Instance::new(apps.to_vec(), platform.clone()).unwrap()
    }

    fn npb_pp() -> Vec<Application> {
        vec![
            Application::perfectly_parallel("CG", 5.70e10, 0.535, 6.59e-4),
            Application::perfectly_parallel("BT", 2.10e11, 0.829, 7.31e-3),
            Application::perfectly_parallel("LU", 1.52e11, 0.750, 1.51e-3),
            Application::perfectly_parallel("SP", 1.38e11, 0.762, 1.51e-2),
            Application::perfectly_parallel("MG", 1.23e10, 0.540, 2.62e-2),
            Application::perfectly_parallel("FT", 1.65e10, 0.582, 1.78e-2),
        ]
    }

    fn random_pp_instance(seed: u64, n: usize) -> Vec<Application> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                Application::perfectly_parallel(
                    format!("T{i}"),
                    10f64.powf(rng.random_range(8.0..12.0)),
                    rng.random_range(0.1..0.9),
                    10f64.powf(rng.random_range(-4.0..-0.05)),
                )
            })
            .collect()
    }

    #[test]
    fn exact_on_npb_selects_full_partition() {
        // On the 32 GB platform the full set is dominant and best.
        let sol = exact_perfectly_parallel(&inst(&npb_pp(), &pf())).unwrap();
        assert_eq!(sol.partition.len(), 6);
        assert!((sol.cache.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_rejects_amdahl_apps() {
        let apps = vec![Application::new("A", 1e10, 0.1, 0.5, 1e-3)];
        assert!(exact_perfectly_parallel(&inst(&apps, &pf())).is_err());
    }

    #[test]
    fn exact_rejects_oversized_instances() {
        let apps: Vec<Application> = (0..MAX_EXACT_APPS + 1)
            .map(|i| Application::perfectly_parallel(format!("T{i}"), 1e9, 0.5, 1e-3))
            .collect();
        assert!(exact_perfectly_parallel(&inst(&apps, &pf())).is_err());
    }

    #[test]
    fn exact_is_a_lower_bound_for_all_heuristics() {
        for seed in 0..8 {
            let apps = random_pp_instance(seed, 7);
            // Stress the partition decision with a small LLC.
            let platform = pf().with_cache_size(100e6);
            let inst = Instance::new(apps, platform).unwrap();
            let exact = exact_perfectly_parallel(&inst).unwrap();
            for s in Strategy::all_coscheduling() {
                let o = s.solve(&inst, &mut SolveCtx::seeded(seed)).unwrap();
                assert!(
                    o.makespan >= exact.makespan * (1.0 - 1e-9),
                    "seed {seed}: {} beat the exact optimum ({} < {})",
                    s.name(),
                    o.makespan,
                    exact.makespan
                );
            }
        }
    }

    #[test]
    fn dominant_min_ratio_is_near_optimal_on_small_instances() {
        // The greedy heuristic is not provably optimal, but on random
        // perfectly-parallel instances it should stay within a few percent.
        let mut worst: f64 = 1.0;
        for seed in 0..16 {
            let apps = random_pp_instance(100 + seed, 6);
            let platform = pf().with_cache_size(200e6);
            let inst = Instance::new(apps, platform).unwrap();
            let exact = exact_perfectly_parallel(&inst).unwrap();
            let h = Strategy::dominant(BuildOrder::Forward, Choice::MinRatio)
                .solve(&inst, &mut SolveCtx::seeded(seed))
                .unwrap();
            worst = worst.max(h.makespan / exact.makespan);
        }
        assert!(worst < 1.10, "optimality gap too large: {worst}");
    }

    #[test]
    fn enumerating_all_subsets_never_beats_dominant_optimum() {
        // §4 argument made executable: the min over *all* subsets of the
        // (clamped) objective equals the min over dominant subsets.
        for seed in 0..8 {
            let apps = random_pp_instance(200 + seed, 6);
            let platform = pf().with_cache_size(80e6);
            let exact = exact_perfectly_parallel(&inst(&apps, &platform)).unwrap();
            let mut best_any = f64::INFINITY;
            for partition in subsets(apps.len()) {
                let obj = partition_objective(&apps, &platform, &partition);
                best_any = best_any.min(obj);
            }
            assert!(
                (best_any - exact.makespan).abs() <= 1e-9 * exact.makespan,
                "seed {seed}: min over all subsets {best_any} != dominant optimum {}",
                exact.makespan
            );
        }
    }

    #[test]
    fn best_partition_amdahl_bounds_heuristics() {
        let mut rng0 = StdRng::seed_from_u64(9);
        let apps: Vec<Application> = random_pp_instance(9, 6)
            .into_iter()
            .map(|a| {
                let s = rng0.random_range(0.01..0.15);
                a.with_seq_fraction(s)
            })
            .collect();
        let platform = pf().with_cache_size(150e6);
        let inst = Instance::new(apps, platform).unwrap();
        let reference = best_partition(&inst).unwrap();
        for s in Strategy::all_dominant() {
            let o = s.solve(&inst, &mut SolveCtx::seeded(0)).unwrap();
            assert!(
                o.makespan >= reference.makespan * (1.0 - 1e-9),
                "{} beat the exhaustive reference",
                s.name()
            );
        }
    }

    #[test]
    fn best_partition_makespan_matches_scalar_resolve() {
        // The SoA enumeration must report exactly the makespan the scalar
        // bisection produces for its winning cache split.
        for seed in 0..4 {
            let apps = random_pp_instance(300 + seed, 6);
            let platform = pf().with_cache_size(120e6);
            let reference = best_partition(&inst(&apps, &platform)).unwrap();
            let ef = equal_finish_split(&apps, &platform, &reference.cache).unwrap();
            assert_eq!(
                ef.makespan.to_bits(),
                reference.makespan.to_bits(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn exact_solution_schedule_is_feasible() {
        let apps = npb_pp();
        let platform = pf();
        let sol = exact_perfectly_parallel(&inst(&apps, &platform)).unwrap();
        let ef = equal_finish_split(&apps, &platform, &sol.cache).unwrap();
        let schedule = crate::model::Schedule::from_parts(&ef.procs, &sol.cache);
        schedule.validate(&apps, &platform).unwrap();
        assert!((ef.makespan - sol.makespan).abs() / sol.makespan < 1e-9);
    }
}
