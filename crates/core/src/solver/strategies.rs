//! [`Solver`] implementations for the paper's strategies.
//!
//! The algorithm bodies live here, operating on a pre-validated
//! [`Instance`] with cached execution models.

use crate::algo::baselines::{all_proc_cache_core, fair_core, random_part_core, zero_cache_core};
use crate::algo::{dominant_partition, BuildOrder, Choice, Outcome, Strategy};
use crate::error::Result;
use crate::model::Schedule;
use crate::solver::{Instance, SolveCtx, Solver};
use crate::theory::cache_alloc::{optimal_cache_fractions, optimal_cache_fractions_into};
use crate::theory::proc_alloc::equal_finish_split_eval;

impl Solver for Strategy {
    fn name(&self) -> String {
        Strategy::name(self)
    }

    fn is_randomized(&self) -> bool {
        Strategy::is_randomized(self)
    }

    fn solve(&self, instance: &Instance, ctx: &mut SolveCtx) -> Result<Outcome> {
        let (models, eval) = (instance.models(), instance.eval());
        let before = ctx.stats();
        let mut outcome = match self {
            Self::Dominant { order, choice } => {
                let partition = dominant_partition(models, *order, *choice, ctx.rng());
                // Theorem-3 fractions land in the scratch's reusable buffer
                // (taken out for the duration of the solve so the kernels
                // below can borrow the scratch mutably) — bit-identical to
                // the boxed `optimal_cache_fractions`, allocation-free on a
                // warm scratch.
                let mut cache = std::mem::take(&mut ctx.scratch().fractions);
                optimal_cache_fractions_into(eval.weights(), &partition, &mut cache);
                let solved =
                    equal_finish_split_eval(eval, &cache, ctx.scratch()).map(|ef| Outcome {
                        makespan: ef.makespan,
                        schedule: Schedule::from_parts(&ef.procs, &cache),
                        partition,
                        concurrent: true,
                        eval_stats: Default::default(),
                        optimal: false,
                    });
                // Hand the buffer back before propagating any bisection
                // error, so a failed solve cannot shrink the recycled
                // scratch.
                ctx.scratch().fractions = cache;
                solved?
            }
            Self::DominantRefined { max_iters } => {
                let partition =
                    dominant_partition(models, BuildOrder::Forward, Choice::MinRatio, ctx.rng());
                let cache = optimal_cache_fractions(models, &partition);
                let refined = crate::algo::refine::refine_eval(
                    eval,
                    &partition,
                    cache,
                    *max_iters,
                    ctx.scratch(),
                )?;
                Outcome {
                    makespan: refined.makespan,
                    schedule: refined.schedule,
                    partition,
                    concurrent: true,
                    eval_stats: Default::default(),
                    optimal: false,
                }
            }
            Self::RandomPart => {
                let (rng, scratch) = ctx.rng_and_scratch();
                random_part_core(eval, rng, scratch)?
            }
            Self::Fair => fair_core(eval, ctx.scratch()),
            Self::ZeroCache => zero_cache_core(eval, ctx.scratch())?,
            Self::AllProcCache => all_proc_cache_core(eval, ctx.scratch()),
        };
        outcome.eval_stats = ctx.stats().since(before);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Application, Platform};

    fn instance() -> Instance {
        let apps = vec![
            Application::new("CG", 5.70e10, 0.05, 0.535, 6.59e-4),
            Application::new("BT", 2.10e11, 0.03, 0.829, 7.31e-3),
            Application::new("LU", 1.52e11, 0.07, 0.750, 1.51e-3),
            Application::new("MG", 1.23e10, 0.12, 0.540, 2.62e-2),
        ];
        Instance::new(apps, Platform::taihulight()).unwrap()
    }

    #[test]
    fn every_strategy_reports_its_evaluation_work() {
        let inst = instance();
        let mut strategies = Strategy::all_coscheduling();
        strategies.push(Strategy::AllProcCache);
        strategies.push(Strategy::refined());
        for s in strategies {
            let o = s.solve(&inst, &mut SolveCtx::seeded(1)).unwrap();
            assert!(
                o.eval_stats.kernel_calls > 0,
                "{} reported no kernel calls",
                Solver::name(&s)
            );
            assert!(
                o.eval_stats.apps_evaluated >= o.eval_stats.kernel_calls,
                "{} evaluated fewer apps than kernels",
                Solver::name(&s)
            );
            // Stats are part of the outcome and must reproduce under the
            // same seed.
            let again = s.solve(&inst, &mut SolveCtx::seeded(1)).unwrap();
            assert_eq!(o.eval_stats, again.eval_stats, "{}", Solver::name(&s));
        }
    }

    #[test]
    fn stats_accumulate_across_solves_but_outcomes_report_deltas() {
        let inst = instance();
        let mut ctx = SolveCtx::seeded(0);
        let first = Strategy::ZeroCache.solve(&inst, &mut ctx).unwrap();
        let second = Strategy::ZeroCache.solve(&inst, &mut ctx).unwrap();
        assert_eq!(first.eval_stats, second.eval_stats);
        assert_eq!(
            ctx.stats().kernel_calls,
            2 * first.eval_stats.kernel_calls,
            "context counters accumulate"
        );
    }

    #[test]
    fn randomized_solvers_draw_from_the_ctx_stream() {
        let inst = instance();
        let a = Strategy::RandomPart
            .solve(&inst, &mut SolveCtx::seeded(3))
            .unwrap();
        let b = Strategy::RandomPart
            .solve(&inst, &mut SolveCtx::seeded(3))
            .unwrap();
        assert_eq!(a, b, "same ctx seed must reproduce");
        let mut partitions = std::collections::HashSet::new();
        for seed in 0..16 {
            let o = Strategy::RandomPart
                .solve(&inst, &mut SolveCtx::seeded(seed))
                .unwrap();
            partitions.insert(o.partition.members().to_vec());
        }
        assert!(partitions.len() > 1, "ctx seed never changed the partition");
    }
}
