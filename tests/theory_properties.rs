//! Property-based integration tests of the paper's theory, across crates:
//! workload generators feed the core solvers, and the §4 results are
//! checked as executable invariants.

use coschedule::algo::{branch_and_bound, BnbConfig, BuildOrder, Choice, Strategy};
use coschedule::model::{seq_cost, Platform, Schedule};
use coschedule::solver::{Instance, SolveCtx, Solver as _};
use coschedule::theory::{
    equal_finish_split, equalize, is_dominant, lemma2_proc_split, optimal_cache_fractions_into,
    Partition,
};
use proptest::prelude::*;
use workloads::rng::seeded_rng;
use workloads::synth::{Dataset, SeqFraction};

fn platform_with_cache(cs_mb: f64) -> Platform {
    Platform::taihulight().with_cache_size(cs_mb * 1e6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 1 structure: the dominant heuristics produce equal-finish
    /// schedules on arbitrary generated instances.
    #[test]
    fn heuristics_produce_equal_finish_schedules(
        seed in 0u64..500,
        n in 2usize..24,
        kind in 0usize..3,
    ) {
        let platform = Platform::taihulight();
        let dataset = Dataset::ALL[kind];
        let mut rng = seeded_rng(seed);
        let apps = dataset.generate(n, SeqFraction::paper_default(), &mut rng);
        let inst = Instance::new(apps.clone(), platform.clone()).unwrap();
        let o = Strategy::dominant(BuildOrder::Forward, Choice::MinRatio)
            .solve(&inst, &mut SolveCtx::seeded(seed))
            .unwrap();
        prop_assert!(o.schedule.is_equal_finish(&apps, &platform, 1e-6));
        prop_assert!((o.schedule.total_procs() - 256.0).abs() < 1e-3);
    }

    /// Lemma 2: for perfectly parallel applications the closed-form
    /// processor split matches the bisection solver.
    #[test]
    fn lemma2_matches_bisection(
        seed in 0u64..500,
        n in 2usize..16,
    ) {
        let platform = Platform::taihulight();
        let mut rng = seeded_rng(seed);
        let apps = Dataset::Random.generate(n, SeqFraction::Zero, &mut rng);
        let cache = vec![1.0 / n as f64; n];
        let closed = lemma2_proc_split(&apps, &platform, &cache);
        let solved = equal_finish_split(&apps, &platform, &cache).unwrap();
        for (a, b) in closed.iter().zip(&solved.procs) {
            prop_assert!((a - b).abs() / a.max(1e-12) < 1e-6, "{a} vs {b}");
        }
    }

    /// Theorem 3 optimality: no pairwise cache transfer inside a dominant
    /// partition improves the Lemma-3 objective.
    #[test]
    fn theorem3_is_locally_optimal(
        seed in 0u64..300,
        n in 2usize..10,
    ) {
        let platform = platform_with_cache(200.0);
        let mut rng = seeded_rng(seed);
        let apps = Dataset::Random.generate(n, SeqFraction::Zero, &mut rng);
        let instance = Instance::new(apps.clone(), platform.clone()).unwrap();
        let full = Partition::all(n);
        prop_assume!(is_dominant(instance.eval(), &full));
        let mut x = Vec::new();
        optimal_cache_fractions_into(instance.eval().weights(), &full, &mut x);
        let objective = |x: &[f64]| -> f64 {
            x.iter().zip(&apps).map(|(&xi, a)| seq_cost(a, &platform, xi)).sum()
        };
        let base = objective(&x);
        let eps = 1e-7;
        for i in 0..n {
            for j in 0..n {
                if i == j { continue; }
                let mut y = x.clone();
                y[i] += eps;
                y[j] -= eps;
                prop_assert!(objective(&y) >= base * (1.0 - 1e-12));
            }
        }
    }

    /// Exact optimum lower-bounds every heuristic (perfectly parallel).
    #[test]
    fn exact_lower_bounds_heuristics(
        seed in 0u64..200,
        n in 2usize..9,
    ) {
        let platform = platform_with_cache(100.0);
        let mut rng = seeded_rng(seed);
        let apps = Dataset::Random.generate(n, SeqFraction::Zero, &mut rng);
        let inst = Instance::new(apps, platform).unwrap();
        let reference = branch_and_bound(&inst, &BnbConfig::default()).unwrap();
        prop_assert!(reference.optimal);
        for s in Strategy::all_coscheduling() {
            let o = s.solve(&inst, &mut SolveCtx::seeded(seed)).unwrap();
            prop_assert!(
                o.makespan >= reference.makespan * (1.0 - 1e-9),
                "{} beat the optimum: {} < {}",
                s.name(), o.makespan, reference.makespan
            );
        }
    }

    /// Feasibility: every concurrent strategy respects Σp ≤ p, Σx ≤ 1 on
    /// arbitrary instances.
    #[test]
    fn schedules_are_always_feasible(
        seed in 0u64..500,
        n in 1usize..32,
        kind in 0usize..3,
    ) {
        let platform = Platform::taihulight();
        let mut rng = seeded_rng(seed);
        let apps = Dataset::ALL[kind].generate(n, SeqFraction::paper_default(), &mut rng);
        let inst = Instance::new(apps.clone(), platform.clone()).unwrap();
        for s in Strategy::all_coscheduling() {
            let o = s.solve(&inst, &mut SolveCtx::seeded(seed)).unwrap();
            prop_assert!(o.schedule.validate(&apps, &platform).is_ok(), "{}", s.name());
        }
    }

    /// Lemma 1 cross-crate: the ε-exchange process, applied to a skewed
    /// Fair-style schedule of a generated instance, never increases the
    /// makespan and converges to equal finish.
    #[test]
    fn lemma1_exchange_improves_generated_schedules(
        seed in 0u64..300,
        n in 2usize..12,
    ) {
        let platform = Platform::taihulight();
        let mut rng = seeded_rng(seed);
        let apps = Dataset::Random.generate(n, SeqFraction::Zero, &mut rng);
        // Start from Fair's (deliberately unbalanced) processor split.
        let fair = Strategy::Fair
            .solve(
                &Instance::new(apps.clone(), platform.clone()).unwrap(),
                &mut SolveCtx::seeded(seed),
            )
            .unwrap();
        let before = fair.schedule.makespan(&apps, &platform);
        let improved = equalize(&apps, &platform, fair.schedule, 1e-10, 10_000);
        let after = improved.makespan(&apps, &platform);
        prop_assert!(after <= before * (1.0 + 1e-9));
        prop_assert!(improved.is_equal_finish(&apps, &platform, 1e-6));
    }

    /// Makespan consistency: the reported makespan equals the schedule's
    /// evaluated makespan under the model (for concurrent strategies).
    #[test]
    fn reported_makespan_matches_schedule(
        seed in 0u64..300,
        n in 1usize..16,
    ) {
        let platform = Platform::taihulight();
        let mut rng = seeded_rng(seed);
        let apps = Dataset::NpbSynth.generate(n, SeqFraction::paper_default(), &mut rng);
        let inst = Instance::new(apps.clone(), platform.clone()).unwrap();
        for s in Strategy::all_coscheduling() {
            let o = s.solve(&inst, &mut SolveCtx::seeded(seed)).unwrap();
            let evaluated = Schedule::makespan(&o.schedule, &apps, &platform);
            prop_assert!(
                (evaluated - o.makespan).abs() / o.makespan < 1e-6,
                "{}: reported {} vs evaluated {}",
                s.name(), o.makespan, evaluated
            );
        }
    }
}
