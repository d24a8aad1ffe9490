//! The reduced objective of Lemma 3 and the partitioned objective of
//! Definition 3 (`CoSchedCache-Part`).

use crate::eval::{EvalScratch, EvalSet};
use crate::model::{seq_cost, seq_cost_full_miss, Application, ExecModel, Platform};
use crate::theory::cache_alloc::optimal_cache_fractions_into;
use crate::theory::dominance::Partition;

/// Definition 3 objective: the Lemma-3 makespan of partition `IC` under its
/// Theorem-3 optimal cache split. Members of `IC` pay the power-law miss
/// rate on their closed-form share; non-members pay full misses.
///
/// For a dominant partition this equals the optimum of
/// `CoSchedCache-Part(IC, ĪC)` (Theorem 3). This is the scalar reference
/// the struct-of-arrays [`partition_objective_eval`] is tested against; it
/// derives the Theorem-3 weights with [`ExecModel::of`].
pub fn partition_objective(
    apps: &[Application],
    platform: &Platform,
    partition: &Partition,
) -> f64 {
    let weights: Vec<f64> = apps
        .iter()
        .map(|a| ExecModel::of(a, platform).weight)
        .collect();
    let mut x = Vec::new();
    optimal_cache_fractions_into(&weights, partition, &mut x);
    let mut total = 0.0;
    for (i, app) in apps.iter().enumerate() {
        total += if partition.contains(i) {
            seq_cost(app, platform, x[i])
        } else {
            seq_cost_full_miss(app, platform)
        };
    }
    total / platform.processors
}

/// [`partition_objective`] on a struct-of-arrays view, reusing `scratch`
/// buffers instead of allocating per partition — the inner loop of the §4
/// exact enumerators, which visit up to `2^n` subsets.
///
/// Bit-identical to the scalar form: non-members get fraction `0`, where
/// the kernel's sequential cost equals `seq_cost_full_miss` exactly (the
/// miss rate saturates at 1), and the sum accumulates in the same index
/// order.
pub fn partition_objective_eval(
    eval: &EvalSet,
    partition: &Partition,
    scratch: &mut EvalScratch,
) -> f64 {
    optimal_cache_fractions_into(eval.weights(), partition, &mut scratch.fractions);
    eval.seq_costs_into(&scratch.fractions, &mut scratch.costs);
    scratch.stats.record(eval.len());
    scratch.costs.iter().sum::<f64>() / eval.processors()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theory::dominance::is_dominant;

    fn setup() -> (Vec<Application>, Platform, EvalSet) {
        let pf = Platform::taihulight();
        let apps = vec![
            Application::perfectly_parallel("CG", 5.70e10, 0.535, 6.59e-4),
            Application::perfectly_parallel("BT", 2.10e11, 0.829, 7.31e-3),
            Application::perfectly_parallel("SP", 1.38e11, 0.762, 1.51e-2),
            Application::perfectly_parallel("MG", 1.23e10, 0.540, 2.62e-2),
        ];
        let eval = EvalSet::of(&apps, &pf);
        (apps, pf, eval)
    }

    #[test]
    fn partition_objective_matches_manual_computation() {
        let (apps, pf, eval) = setup();
        let part = Partition::new(vec![0, 1]);
        let mut x = Vec::new();
        optimal_cache_fractions_into(eval.weights(), &part, &mut x);
        let manual = (seq_cost(&apps[0], &pf, x[0])
            + seq_cost(&apps[1], &pf, x[1])
            + seq_cost_full_miss(&apps[2], &pf)
            + seq_cost_full_miss(&apps[3], &pf))
            / 256.0;
        let got = partition_objective(&apps, &pf, &part);
        assert!((got - manual).abs() / manual < 1e-12);
    }

    #[test]
    fn eval_objective_is_bit_identical_for_every_partition() {
        let (apps, pf, eval) = setup();
        let mut scratch = EvalScratch::new();
        for mask in 0u32..16 {
            let part = Partition::new((0..4).filter(|i| mask >> i & 1 == 1).collect());
            let scalar = partition_objective(&apps, &pf, &part);
            let soa = partition_objective_eval(&eval, &part, &mut scratch);
            assert_eq!(scalar.to_bits(), soa.to_bits(), "mask {mask}");
        }
        assert_eq!(scratch.stats.kernel_calls, 16);
    }

    #[test]
    fn sharing_cache_beats_no_cache_when_dominant() {
        let (apps, pf, eval) = setup();
        let full = Partition::all(4);
        assert!(is_dominant(&eval, &full));
        let with_cache = partition_objective(&apps, &pf, &full);
        let without = partition_objective(&apps, &pf, &Partition::empty());
        assert!(with_cache < without);
    }

    mod properties {
        use super::*;
        use crate::theory::dominance::violators;
        use proptest::prelude::*;

        proptest! {
            /// Theorem 2, executable: from any non-dominant partition,
            /// stripping violators one by one never worsens the objective
            /// and terminates on a dominant partition.
            #[test]
            fn stripping_violators_is_monotone(
                rows in proptest::collection::vec(
                    (1e8f64..1e12, 0.1f64..0.9, 1e-2f64..8e-1), 2..10),
            ) {
                let pf = Platform::taihulight().with_cache_size(80e6);
                let apps: Vec<Application> = rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, (w, f, m))| {
                        Application::perfectly_parallel(format!("P{i}"), w, f, m)
                    })
                    .collect();
                let eval = EvalSet::of(&apps, &pf);
                let mut part = Partition::all(apps.len());
                let mut prev = partition_objective(&apps, &pf, &part);
                while let Some(&k) = violators(&eval, &part).first() {
                    part.remove(k);
                    let cur = partition_objective(&apps, &pf, &part);
                    prop_assert!(
                        cur <= prev * (1.0 + 1e-12),
                        "evicting violator {k} worsened the objective: {prev} -> {cur}"
                    );
                    prev = cur;
                }
                prop_assert!(is_dominant(&eval, &part));
            }
        }
    }

    #[test]
    fn theorem2_removing_a_violator_improves_objective() {
        // Build a non-dominant partition on a small LLC and check that
        // evicting a violator strictly improves the objective, as Theorem 2
        // guarantees.
        let pf = Platform::taihulight().with_cache_size(60e6);
        let apps = vec![
            Application::perfectly_parallel("A", 1e11, 0.8, 0.3),
            Application::perfectly_parallel("B", 1e11, 0.8, 0.3),
            Application::perfectly_parallel("C", 1e8, 0.8, 0.25),
        ];
        let eval = EvalSet::of(&apps, &pf);
        let full = Partition::all(3);
        let viols = crate::theory::dominance::violators(&eval, &full);
        assert!(
            !viols.is_empty(),
            "test premise: partition must be non-dominant"
        );
        let before = partition_objective(&apps, &pf, &full);
        let mut reduced = full.clone();
        reduced.remove(viols[0]);
        let after = partition_objective(&apps, &pf, &reduced);
        assert!(
            after < before,
            "evicting violator {} should improve: {before} -> {after}",
            viols[0]
        );
    }
}
