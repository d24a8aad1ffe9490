//! Optimal cache partitioning for a fixed sharing subset
//! (paper Lemma 4 and Theorem 3).

use crate::theory::dominance::Partition;

/// Lemma 4 / Theorem 3: the cache split minimising the total sequential cost
/// for sharing subset `IC` is
/// `x_i = (w_i f_i d_i)^{1/(α+1)} / S(IC)` for `i ∈ IC` and `x_i = 0`
/// otherwise, written into `x` (resized to `weights.len()`).
///
/// `weights` are the Theorem-3 weights, normally
/// [`EvalSet::weights`](crate::eval::EvalSet::weights); the caller owns the buffer, so enumeration loops
/// evaluate many partitions without allocating. Strength is summed over
/// members in the same order as
/// [`partition_strength`](crate::theory::dominance::partition_strength);
/// a caller that already has it calls [`fractions_at_strength_into`].
///
/// For a **dominant** `IC` this is the optimum of
/// `CoSchedCache-Part(IC, ĪC)` (Theorem 3); for any `IC` it is the optimum
/// of the relaxed problem `CoSchedCache-Ext`. The fractions sum to exactly 1
/// whenever `IC ≠ ∅`.
pub fn optimal_cache_fractions_into(weights: &[f64], partition: &Partition, x: &mut Vec<f64>) {
    let strength = partition.members().iter().map(|&i| weights[i]).sum();
    fractions_at_strength_into(weights, partition, strength, x);
}

/// [`optimal_cache_fractions_into`] for a partition whose strength
/// `S(IC)` the caller has already summed, as
/// [`dominant_partition`](crate::algo::dominant_partition) hands it out.
/// `strength` must have the bits that sum has.
///
/// When `IC` is every application, the default LLC's case, the fractions
/// are one contiguous pass of divisions instead of a gather and a
/// scatter; each quotient is the same IEEE division either way.
pub fn fractions_at_strength_into(
    weights: &[f64],
    partition: &Partition,
    strength: f64,
    x: &mut Vec<f64>,
) {
    let (members, n) = (partition.members(), weights.len());
    x.clear();
    // Sorted, distinct and all below `n`: the members are `0..n`.
    if strength > 0.0 && members.len() == n && members.last().is_none_or(|&i| i < n) {
        x.extend(weights.iter().map(|&w| w / strength));
        return;
    }
    x.resize(n, 0.0);
    if strength <= 0.0 {
        return;
    }
    for &i in members {
        x[i] = weights[i] / strength;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalSet;
    use crate::model::{seq_cost, Application, Platform};
    use crate::theory::dominance::partition_strength;

    fn setup() -> (Vec<Application>, Platform, EvalSet) {
        let pf = Platform::taihulight();
        let apps = vec![
            Application::new("CG", 5.70e10, 0.0, 0.535, 6.59e-4),
            Application::new("BT", 2.10e11, 0.0, 0.829, 7.31e-3),
            Application::new("SP", 1.38e11, 0.0, 0.762, 1.51e-2),
        ];
        let eval = EvalSet::of(&apps, &pf);
        (apps, pf, eval)
    }

    fn fractions(eval: &EvalSet, partition: &Partition) -> Vec<f64> {
        let mut x = Vec::new();
        optimal_cache_fractions_into(eval.weights(), partition, &mut x);
        x
    }

    #[test]
    fn fractions_sum_to_one_on_nonempty_partition() {
        let (_, _, m) = setup();
        let x = fractions(&m, &Partition::all(3));
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nonmembers_get_zero() {
        let (_, _, m) = setup();
        let x = fractions(&m, &Partition::new(vec![1]));
        assert_eq!(x[0], 0.0);
        assert_eq!(x[2], 0.0);
        assert!((x[1] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn empty_partition_gets_all_zeros() {
        let (_, _, m) = setup();
        let x = fractions(&m, &Partition::empty());
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fractions_proportional_to_weights() {
        let (_, _, m) = setup();
        let x = fractions(&m, &Partition::all(3));
        // x_i / x_j = weight_i / weight_j
        assert!((x[0] / x[1] - m.weights()[0] / m.weights()[1]).abs() < 1e-12);
        assert!((x[1] / x[2] - m.weights()[1] / m.weights()[2]).abs() < 1e-12);
    }

    #[test]
    fn theorem3_is_stationary_point_of_total_seq_cost() {
        // Perturb the optimal split along feasible directions: the total
        // sequential cost (Lemma 3 objective) must not decrease.
        let (apps, pf, m) = setup();
        let part = Partition::all(3);
        let x = fractions(&m, &part);
        let total = |x: &[f64]| -> f64 {
            x.iter()
                .zip(&apps)
                .map(|(&xi, a)| seq_cost(a, &pf, xi))
                .sum()
        };
        let base = total(&x);
        let eps = 1e-6;
        for i in 0..3 {
            for j in 0..3 {
                if i == j {
                    continue;
                }
                let mut y = x.clone();
                y[i] += eps;
                y[j] -= eps;
                assert!(
                    total(&y) >= base - 1e-9,
                    "moving cache from {j} to {i} improved the objective"
                );
            }
        }
    }

    #[test]
    fn into_variant_is_bit_identical_for_every_partition() {
        let (_, _, m) = setup();
        let mut buf = vec![99.0; 7]; // stale content must be overwritten
        for mask in 0u32..8 {
            let part = Partition::new((0..3).filter(|i| mask >> i & 1 == 1).collect());
            let strength = partition_strength(&m, &part);
            optimal_cache_fractions_into(m.weights(), &part, &mut buf);
            assert_eq!(buf.len(), 3);
            for (i, v) in buf.iter().enumerate() {
                let expected = if part.contains(i) {
                    m.weights()[i] / strength
                } else {
                    0.0
                };
                assert_eq!(expected.to_bits(), v.to_bits(), "mask {mask}");
            }
        }
    }
}
