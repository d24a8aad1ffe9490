//! The [`Strategy`] enum: compact names for the six dominant-partition
//! heuristics and the four baselines.
//!
//! `Strategy` is a thin value type — the algorithm bodies live in its
//! [`Solver`](crate::solver::Solver) implementation
//! (see [`crate::solver`]). Figure drivers use the enum for its paper
//! legend names and solve through an [`Instance`](crate::solver::Instance)
//! built once.

use crate::algo::choice::Choice;
use crate::algo::dominant::BuildOrder;
use crate::solver::Solver;

/// A complete co-scheduling strategy: decides both the cache partition and
/// the processor split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// A dominant-partition heuristic of §5: build `IC` greedily, give
    /// fractions by Theorem 3, equalise finish times for the processors.
    Dominant {
        /// Algorithm 1 (`Forward`) or Algorithm 2 (`Reverse`).
        order: BuildOrder,
        /// Greedy choice function.
        choice: Choice,
    },
    /// Extension (paper §7 future work): start from
    /// `Dominant`+`MinRatio`, then refine the cache split for the actual
    /// Amdahl profiles by coordinate descent (see [`crate::algo::refine`]).
    DominantRefined {
        /// Maximum refinement iterations (the loop stops at the first
        /// non-improving step; 50 is plenty).
        max_iters: usize,
    },
    /// Random cache-sharing subset, Theorem-3 fractions, equal finish.
    RandomPart,
    /// Even processors, frequency-proportional cache (§6.3).
    Fair,
    /// No cache for anyone, equal finish (§6.3).
    ZeroCache,
    /// Sequential execution, each application alone on the whole machine.
    AllProcCache,
}

impl Strategy {
    /// Convenience constructor for the dominant-partition family.
    pub fn dominant(order: BuildOrder, choice: Choice) -> Self {
        Self::Dominant { order, choice }
    }

    /// Convenience constructor for the refined extension strategy.
    pub fn refined() -> Self {
        Self::DominantRefined { max_iters: 50 }
    }

    /// The six §5 heuristics in the paper's Figure-1 legend order:
    /// Dominant{Random,MinRatio,MaxRatio}, DominantRev{…}.
    pub fn all_dominant() -> Vec<Strategy> {
        let mut v = Vec::with_capacity(6);
        for order in [BuildOrder::Forward, BuildOrder::Reverse] {
            for choice in Choice::ALL {
                v.push(Self::dominant(order, choice));
            }
        }
        v
    }

    /// The nine co-scheduling heuristics compared in Figure 18
    /// (six dominant variants + RandomPart + Fair + 0cache).
    pub fn all_coscheduling() -> Vec<Strategy> {
        let mut v = Self::all_dominant();
        v.extend([Self::RandomPart, Self::Fair, Self::ZeroCache]);
        v
    }

    /// Display name matching the paper's legends
    /// (e.g. `DominantMinRatio`, `DominantRevMaxRatio`, `0cache`).
    pub fn name(&self) -> String {
        match self {
            Self::Dominant { order, choice } => format!("{}{}", order.name(), choice.name()),
            Self::DominantRefined { .. } => "DominantRefined".to_string(),
            Self::RandomPart => "RandomPart".to_string(),
            Self::Fair => "Fair".to_string(),
            Self::ZeroCache => "0cache".to_string(),
            Self::AllProcCache => "AllProcCache".to_string(),
        }
    }

    /// `true` iff the strategy involves random decisions (needs averaging).
    pub fn is_randomized(&self) -> bool {
        matches!(
            self,
            Self::RandomPart
                | Self::Dominant {
                    choice: Choice::Random,
                    ..
                }
        )
    }

    /// Boxes this strategy as a [`Solver`] for registry and
    /// [`Portfolio`](crate::solver::Portfolio) use.
    pub fn to_solver(&self) -> Box<dyn Solver> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::outcome::Outcome;
    use crate::model::{Application, Platform};
    use crate::solver::{Instance, SolveCtx};

    fn apps() -> Vec<Application> {
        vec![
            Application::new("CG", 5.70e10, 0.05, 0.535, 6.59e-4),
            Application::new("BT", 2.10e11, 0.03, 0.829, 7.31e-3),
            Application::new("LU", 1.52e11, 0.07, 0.750, 1.51e-3),
            Application::new("SP", 1.38e11, 0.02, 0.762, 1.51e-2),
            Application::new("MG", 1.23e10, 0.12, 0.540, 2.62e-2),
            Application::new("FT", 1.65e10, 0.09, 0.582, 1.78e-2),
        ]
    }

    fn pf() -> Platform {
        Platform::taihulight()
    }

    fn instance() -> Instance {
        Instance::new(apps(), pf()).unwrap()
    }

    fn solve(s: Strategy, inst: &Instance, seed: u64) -> Outcome {
        s.solve(inst, &mut SolveCtx::seeded(seed))
            .unwrap_or_else(|e| panic!("{} failed: {e}", Solver::name(&s)))
    }

    #[test]
    fn every_strategy_yields_feasible_schedule() {
        let a = apps();
        let p = pf();
        let inst = instance();
        let mut strategies = Strategy::all_coscheduling();
        strategies.push(Strategy::AllProcCache);
        for s in strategies {
            let o = solve(s, &inst, 0);
            if o.concurrent {
                // Sequential AllProcCache grants (p, 1) to every run, so the
                // concurrent resource constraints do not apply to it.
                o.schedule.validate(&a, &p).unwrap();
            }
            assert!(o.makespan.is_finite() && o.makespan > 0.0, "{}", s.name());
        }
    }

    #[test]
    fn names_match_paper_legends() {
        let names: Vec<String> = Strategy::all_coscheduling()
            .iter()
            .map(Strategy::name)
            .collect();
        assert_eq!(
            names,
            vec![
                "DominantRandom",
                "DominantMinRatio",
                "DominantMaxRatio",
                "DominantRevRandom",
                "DominantRevMinRatio",
                "DominantRevMaxRatio",
                "RandomPart",
                "Fair",
                "0cache",
            ]
        );
        assert_eq!(Strategy::AllProcCache.name(), "AllProcCache");
    }

    #[test]
    fn randomization_flags() {
        assert!(Strategy::RandomPart.is_randomized());
        assert!(Strategy::dominant(BuildOrder::Forward, Choice::Random).is_randomized());
        assert!(!Strategy::dominant(BuildOrder::Forward, Choice::MinRatio).is_randomized());
        assert!(!Strategy::Fair.is_randomized());
        assert!(!Strategy::ZeroCache.is_randomized());
        assert!(!Strategy::AllProcCache.is_randomized());
    }

    #[test]
    fn dominant_beats_zero_cache_on_npb() {
        // The only difference between 0cache and DominantMinRatio is the
        // cache allocation, which the paper reports gains >20% from.
        let inst = instance();
        let dmr = solve(
            Strategy::dominant(BuildOrder::Forward, Choice::MinRatio),
            &inst,
            0,
        );
        let zc = solve(Strategy::ZeroCache, &inst, 0);
        assert!(dmr.makespan < zc.makespan);
    }

    #[test]
    fn dominant_beats_fair_and_random_part_on_npb() {
        let inst = instance();
        let dmr = solve(
            Strategy::dominant(BuildOrder::Forward, Choice::MinRatio),
            &inst,
            1,
        )
        .makespan;
        let fair = solve(Strategy::Fair, &inst, 1).makespan;
        // RandomPart averaged over seeds.
        let mut rp_sum = 0.0;
        for seed in 0..32 {
            rp_sum += solve(Strategy::RandomPart, &inst, seed).makespan;
        }
        let rp = rp_sum / 32.0;
        assert!(dmr <= rp * (1.0 + 1e-9), "DMR {dmr} vs RandomPart {rp}");
        assert!(dmr < fair, "DMR {dmr} vs Fair {fair}");
    }

    #[test]
    fn co_scheduling_beats_sequential_with_seq_fraction() {
        // Paper Figure 6: with s around a few percent, co-scheduling gains
        // >50% over AllProcCache on 256 processors and 16 apps.
        let inst = instance();
        let dmr = solve(
            Strategy::dominant(BuildOrder::Forward, Choice::MinRatio),
            &inst,
            0,
        )
        .makespan;
        let apc = solve(Strategy::AllProcCache, &inst, 0).makespan;
        assert!(dmr < apc, "co-scheduling {dmr} vs sequential {apc}");
    }

    #[test]
    fn single_app_all_proc_cache_equals_dominant() {
        // With one application both approaches give it everything.
        let inst = Instance::new(vec![apps().remove(1)], pf()).unwrap();
        let dmr = solve(
            Strategy::dominant(BuildOrder::Forward, Choice::MinRatio),
            &inst,
            0,
        )
        .makespan;
        let apc = solve(Strategy::AllProcCache, &inst, 0).makespan;
        assert!((dmr - apc).abs() / apc < 1e-9);
    }

    #[test]
    fn outcome_partition_consistent_with_cache_assignment() {
        let inst = instance();
        for s in Strategy::all_dominant() {
            let o = solve(s, &inst, 0);
            for (i, asg) in o.schedule.assignments.iter().enumerate() {
                assert_eq!(
                    o.partition.contains(i),
                    asg.cache > 0.0,
                    "{}: app {i}",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn refined_never_loses_to_dmr() {
        let a = apps();
        let p = pf();
        let inst = instance();
        let dmr = solve(
            Strategy::dominant(BuildOrder::Forward, Choice::MinRatio),
            &inst,
            0,
        );
        let refined = solve(Strategy::refined(), &inst, 0);
        assert!(refined.makespan <= dmr.makespan * (1.0 + 1e-12));
        refined.schedule.validate(&a, &p).unwrap();
        assert_eq!(refined.partition, dmr.partition);
    }

    #[test]
    fn refined_is_deterministic() {
        let inst = instance();
        assert!(!Strategy::refined().is_randomized());
        let r1 = solve(Strategy::refined(), &inst, 1);
        let r2 = solve(Strategy::refined(), &inst, 999);
        assert_eq!(r1, r2);
    }

    #[test]
    fn empty_instances_cannot_reach_a_solver() {
        // Under the Solver API validation happens once, at Instance
        // construction; no strategy can ever see an empty instance.
        assert!(Instance::new(vec![], pf()).is_err());
    }
}
