//! Algorithms 1 and 2: greedy construction of dominant partitions (§5).

use crate::algo::choice::{ratio_order, Choice};
use crate::eval::EvalSet;
use crate::theory::dominance::{is_dominant, partition_strength, violators, Partition};
use rand::Rng;

/// Direction in which the greedy construction proceeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuildOrder {
    /// Algorithm 1 (`Dominant`): start from `IC = I` and evict applications
    /// until the partition is dominant.
    Forward,
    /// Algorithm 2 (`DominantRev`): start from `IC = ∅` and admit
    /// applications while the partition stays dominant.
    Reverse,
}

impl BuildOrder {
    /// Short name used in figures (`Dominant`, `DominantRev`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Forward => "Dominant",
            Self::Reverse => "DominantRev",
        }
    }
}

/// Builds a dominant partition from the instance's Theorem-3 weights and
/// dominance ratios.
///
/// * `Forward` implements Algorithm 1: while a dominance violator exists
///   (`ratio_i ≤ S(IC)`, cf. Definition 4), remove `choice(IC)`. As printed
///   in the report the loop guard's comparison is garbled by typesetting;
///   the version implied by Theorem 2 (loop while *non-dominant*) is
///   implemented. With `MinRatio` the evicted application is always a
///   violator; `MaxRatio` may evict useful applications first, which is why
///   the paper finds it performs worst in this direction.
/// * `Reverse` implements Algorithm 2: grow `IC` one application at a time,
///   keeping the last subset that was dominant, and stop at the first
///   addition that breaks dominance (or when all applications are in).
///
/// The returned partition is always dominant (possibly empty). It comes
/// with its strength `S(IC)`, with the bits
/// [`partition_strength`] gives, so that the Theorem-3 fractions
/// ([`fractions_at_strength_into`](crate::theory::cache_alloc::fractions_at_strength_into))
/// need not sum it again.
pub fn dominant_partition<R: Rng + ?Sized>(
    eval: &EvalSet,
    order: BuildOrder,
    choice: Choice,
    rng: &mut R,
) -> (Partition, f64) {
    match order {
        BuildOrder::Forward => forward(eval, choice, rng),
        BuildOrder::Reverse => with_strength(eval, reverse(eval, choice, rng)),
    }
}

fn with_strength(eval: &EvalSet, partition: Partition) -> (Partition, f64) {
    let strength = partition_strength(eval, &partition);
    (partition, strength)
}

fn forward<R: Rng + ?Sized>(eval: &EvalSet, choice: Choice, rng: &mut R) -> (Partition, f64) {
    match choice {
        Choice::MinRatio => forward_min_ratio(eval),
        _ => None,
    }
    .unwrap_or_else(|| with_strength(eval, evict_until_dominant(eval, choice, rng)))
}

/// Algorithm 1 as printed: evict `choice(IC)` while `IC` has a violator,
/// one strength pass per eviction.
fn evict_until_dominant<R: Rng + ?Sized>(eval: &EvalSet, choice: Choice, rng: &mut R) -> Partition {
    let mut ic = Partition::all(eval.len());
    while !ic.is_empty() && !violators(eval, &ic).is_empty() {
        let k = choice.pick(ic.members(), eval.ratios(), rng);
        ic.remove(k);
    }
    ic
}

/// Algorithm 1 with `MinRatio`: the partition [`evict_until_dominant`]
/// ends at, found by a binary search instead of one O(n) pass per
/// eviction. A dominant full set costs one contiguous strength pass and
/// no sort. Returns the strength of the partition it ends at, which is
/// the sum its last successful probe made.
///
/// `MinRatio` evicts in `(ratio, index)` order, so after `k` evictions
/// `IC_k` is that order without its first `k` entries, and `IC_k` is
/// dominant iff the smallest ratio left, `ratio[order[k]]`, exceeds
/// `S(IC_k)`. That test is monotone in `k` as computed. The ratios rise
/// along the order. `S(IC_k)` is summed over members in index order, as
/// [`partition_strength`](crate::theory::dominance::partition_strength)
/// does; with every weight `≥ 0` and rounded addition monotone in each
/// operand, the sum over a subset is at most the sum over its superset,
/// so `S` falls as `k` grows. Once `ratio[order[k]] > S(IC_k)` holds, it
/// holds for every larger `k`, and the loop stops at the least such `k`.
///
/// Returns `None`, leaving the loop to run, when a ratio is NaN (the
/// order is then not the loop's) or a weight is NaN or negative.
fn forward_min_ratio(eval: &EvalSet) -> Option<(Partition, f64)> {
    // A dominant set has no violator, so the loop would keep it too. Its
    // members are `0..n`, so the strength is the weights' sum in order.
    let n = eval.len();
    let (weights, ratios) = (eval.weights(), eval.ratios());
    let strength: f64 = weights.iter().sum();
    if ratios.iter().all(|&r| r > strength) {
        return Some((Partition::all(n), strength));
    }
    if ratios
        .iter()
        .zip(weights)
        .any(|(r, w)| r.is_nan() || w.is_nan() || *w < 0.0)
    {
        return None;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| ratio_order(ratios, a, b));
    let mut rank = vec![0; n];
    for (position, &i) in order.iter().enumerate() {
        rank[i] = position;
    }
    let strength_after =
        |k: usize| -> f64 { (0..n).filter(|&i| rank[i] >= k).map(|i| weights[i]).sum() };
    // Not dominant after 0 evictions, always dominant after n.
    let (mut lo, mut hi, mut strength_at_hi) = (0, n, None);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let strength = strength_after(mid);
        if ratios[order[mid]] > strength {
            (hi, strength_at_hi) = (mid, Some(strength));
        } else {
            lo = mid;
        }
    }
    let strength = strength_at_hi.unwrap_or_else(|| strength_after(hi));
    Some(((0..n).filter(|&i| rank[i] >= hi).collect(), strength))
}

fn reverse<R: Rng + ?Sized>(eval: &EvalSet, choice: Choice, rng: &mut R) -> Partition {
    let mut outside: Vec<usize> = (0..eval.len()).collect();
    let mut ic = Partition::empty();
    if outside.is_empty() {
        return ic;
    }
    let mut trial = ic.clone();
    let k = choice.pick(&outside, eval.ratios(), rng);
    trial.insert(k);
    while is_dominant(eval, &trial) {
        ic = trial.clone();
        outside.retain(|&i| !trial.contains(i));
        if outside.is_empty() {
            break;
        }
        let k = choice.pick(&outside, eval.ratios(), rng);
        trial.insert(k);
    }
    ic
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Application, Platform};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt as _, SeedableRng};

    /// The six NPB rows of Table 2, `(name, w, f, m at 40 MB)`.
    const NPB: [(&str, f64, f64, f64); 6] = [
        ("CG", 5.70e10, 0.535, 6.59e-4),
        ("BT", 2.10e11, 0.829, 7.31e-3),
        ("LU", 1.52e11, 0.750, 1.51e-3),
        ("SP", 1.38e11, 0.762, 1.51e-2),
        ("MG", 1.23e10, 0.540, 2.62e-2),
        ("FT", 1.65e10, 0.582, 1.78e-2),
    ];

    /// Random instances around the search's corners: NPB-SYNTH rows or
    /// fully random ones on LLCs from 1 MB to 1 GB, repeated rows (tied
    /// ratios), `d = 0` (ratio `+∞`), `f = 0` (weight 0), and one case in
    /// eight with a NaN or negative work, which the search leaves to the
    /// loop.
    fn random_instance(seed: u64) -> EvalSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = if rng.random_range(0..4) == 0 {
            rng.random_range(100..=600)
        } else {
            rng.random_range(1..=40)
        };
        let cs = [1e6, 10e6, 45e6, 100e6, 1e9][rng.random_range(0..5usize)];
        let mut apps: Vec<Application> = Vec::with_capacity(n);
        for i in 0..n {
            let (name, _, mut f, mut m) = NPB[i % 6];
            let w = 10f64.powf(rng.random_range(8.0..=12.0));
            if rng.random_range(0..2) == 0 {
                f = rng.random_range(0.1..=0.9);
                m = rng.random_range(9e-4..=1e-2);
            }
            match rng.random_range(0..24) {
                0 => m = 0.0,
                1 => f = 0.0,
                2 if i > 0 => {
                    let twin = apps[rng.random_range(0..i)].clone();
                    apps.push(twin);
                    continue;
                }
                _ => {}
            }
            apps.push(Application::new(format!("{name}-{i}"), w, 0.05, f, m));
        }
        if rng.random_range(0..8) == 0 {
            let i = rng.random_range(0..n);
            apps[i].work = if rng.random_range(0..2) == 0 {
                f64::NAN
            } else {
                -1e9
            };
        }
        EvalSet::of(&apps, &Platform::taihulight().with_cache_size(cs))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every Forward variant returns the eviction loop's partition,
        /// with the bits of its strength, and draws the same random
        /// numbers doing so: for `MinRatio` the loop is the reference the
        /// search is pinned to.
        fn forward_matches_the_eviction_loop(seed in 0u64..u64::MAX) {
            let eval = random_instance(seed);
            for choice in Choice::ALL {
                let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let (fast, strength) = forward(&eval, choice, &mut r1);
                prop_assert_eq!(&fast, &evict_until_dominant(&eval, choice, &mut r2), "{}", choice.name());
                prop_assert_eq!(strength.to_bits(), partition_strength(&eval, &fast).to_bits());
                prop_assert_eq!(r1.random_range(0..u64::MAX), r2.random_range(0..u64::MAX));
            }
        }
    }

    #[test]
    fn a_ratio_equal_to_the_strength_is_evicted() {
        // With m0 = 1 on an LLC of C0 = 40 MB, d = threshold = 1 and the
        // ratio is the weight itself. Once A is evicted, S({B}) = ratio_B
        // exactly, so B violates dominance too and nobody keeps cache.
        let pf = Platform::taihulight().with_cache_size(40e6);
        let apps = vec![
            Application::perfectly_parallel("A", 1e9, 0.5, 1.0),
            Application::perfectly_parallel("B", 1e10, 0.5, 1.0),
        ];
        let eval = EvalSet::of(&apps, &pf);
        assert_eq!(eval.ratios()[1].to_bits(), eval.weights()[1].to_bits());
        let mut rng = StdRng::seed_from_u64(0);
        let (fast, _) = forward(&eval, Choice::MinRatio, &mut rng);
        assert_eq!(
            fast,
            evict_until_dominant(&eval, Choice::MinRatio, &mut rng)
        );
        assert!(fast.is_empty());
    }

    #[test]
    fn min_ratio_search_matches_the_loop_on_a_small_llc() {
        // 4096 NPB-SYNTH applications on a 10 MB LLC: the loop makes
        // one pass per eviction, over 1700 of them.
        let mut rng = StdRng::seed_from_u64(1);
        let apps: Vec<Application> = (0..4096)
            .map(|i| {
                let (name, _, f, m) = NPB[i % 6];
                let w = rng.random_range(1e8..=1e12);
                Application::new(format!("{name}-{i}"), w, 0.08, f, m)
            })
            .collect();
        let eval = EvalSet::of(&apps, &Platform::taihulight().with_cache_size(10e6));
        let (fast, strength) = forward_min_ratio(&eval).expect("finite ratios and weights");
        let reference =
            evict_until_dominant(&eval, Choice::MinRatio, &mut StdRng::seed_from_u64(0));
        assert!(
            fast.len() < eval.len() - 1700,
            "{} of {} kept",
            fast.len(),
            eval.len()
        );
        assert_eq!(
            strength.to_bits(),
            partition_strength(&eval, &fast).to_bits()
        );
        assert_eq!(fast, reference);
    }

    fn npb_models(cs: f64) -> EvalSet {
        let pf = Platform::taihulight().with_cache_size(cs);
        let apps: Vec<Application> = NPB
            .iter()
            .map(|&(name, w, f, m)| Application::perfectly_parallel(name, w, f, m))
            .collect();
        EvalSet::of(&apps, &pf)
    }

    fn all_variants() -> Vec<(BuildOrder, Choice)> {
        let mut v = Vec::new();
        for order in [BuildOrder::Forward, BuildOrder::Reverse] {
            for choice in Choice::ALL {
                v.push((order, choice));
            }
        }
        v
    }

    #[test]
    fn result_is_always_dominant() {
        for cs in [32_000e6, 1e9, 100e6, 45e6] {
            let m = npb_models(cs);
            for (order, choice) in all_variants() {
                let mut rng = StdRng::seed_from_u64(11);
                let (p, strength) = dominant_partition(&m, order, choice, &mut rng);
                assert_eq!(strength.to_bits(), partition_strength(&m, &p).to_bits());
                assert!(
                    is_dominant(&m, &p),
                    "{}{} on Cs={cs} returned a non-dominant partition",
                    order.name(),
                    choice.name()
                );
            }
        }
    }

    #[test]
    fn large_llc_admits_everyone() {
        // Paper Figure 1 regime: on the 32 GB "LLC" all six NPB applications
        // share the cache, so every variant returns the full set.
        let m = npb_models(32_000e6);
        for (order, choice) in all_variants() {
            let mut rng = StdRng::seed_from_u64(5);
            let (p, _) = dominant_partition(&m, order, choice, &mut rng);
            assert_eq!(p.len(), m.len(), "{}{}", order.name(), choice.name());
        }
    }

    #[test]
    fn forward_minratio_evicts_only_violators() {
        // Replay Algorithm 1 with MinRatio and check the paper's intuition:
        // every evicted application was a violator at eviction time.
        let m = npb_models(45e6);
        let mut ic = Partition::all(m.len());
        let mut rng = StdRng::seed_from_u64(0);
        while !ic.is_empty() && !violators(&m, &ic).is_empty() {
            let k = Choice::MinRatio.pick(ic.members(), m.ratios(), &mut rng);
            assert!(
                violators(&m, &ic).contains(&k),
                "MinRatio picked non-violator {k}"
            );
            ic.remove(k);
        }
        assert!(is_dominant(&m, &ic));
    }

    #[test]
    fn reverse_admits_in_ratio_order_with_maxratio() {
        let m = npb_models(100e6);
        let mut rng = StdRng::seed_from_u64(0);
        let (p, _) = dominant_partition(&m, BuildOrder::Reverse, Choice::MaxRatio, &mut rng);
        // Members must be the top-|IC| applications by ratio.
        let mut by_ratio: Vec<usize> = (0..m.len()).collect();
        let r = m.ratios();
        by_ratio.sort_by(|&a, &b| r[b].partial_cmp(&r[a]).unwrap());
        let expected: Vec<usize> = by_ratio.into_iter().take(p.len()).collect();
        let expected = Partition::new(expected);
        assert_eq!(p, expected);
    }

    #[test]
    fn deterministic_variants_ignore_rng() {
        let m = npb_models(1e9);
        for order in [BuildOrder::Forward, BuildOrder::Reverse] {
            for choice in [Choice::MinRatio, Choice::MaxRatio] {
                let mut r1 = StdRng::seed_from_u64(1);
                let mut r2 = StdRng::seed_from_u64(999);
                let (p1, _) = dominant_partition(&m, order, choice, &mut r1);
                let (p2, _) = dominant_partition(&m, order, choice, &mut r2);
                assert_eq!(p1, p2);
            }
        }
    }

    #[test]
    fn hopeless_apps_are_excluded() {
        // d >= 1 (cache useless even when whole): can never be dominant.
        let pf = Platform::taihulight().with_cache_size(1e6);
        let apps = vec![
            Application::perfectly_parallel("hopeless", 1e10, 0.8, 0.9),
            Application::perfectly_parallel("fine", 1e10, 0.8, 1e-4),
        ];
        let m = EvalSet::of(&apps, &pf);
        assert!(m.d()[0] > 1.0);
        for (order, choice) in all_variants() {
            let mut rng = StdRng::seed_from_u64(2);
            let (p, _) = dominant_partition(&m, order, choice, &mut rng);
            assert!(!p.contains(0), "{}{}", order.name(), choice.name());
        }
    }

    #[test]
    fn empty_instance_yields_empty_partition() {
        let mut rng = StdRng::seed_from_u64(0);
        let empty = EvalSet::default();
        let (p, _) = dominant_partition(&empty, BuildOrder::Forward, Choice::MinRatio, &mut rng);
        assert!(p.is_empty());
        let (p, _) = dominant_partition(&empty, BuildOrder::Reverse, Choice::MaxRatio, &mut rng);
        assert!(p.is_empty());
    }

    #[test]
    fn forward_and_reverse_agree_on_best_pairings_for_npb() {
        // DominantMinRatio and DominantRevMaxRatio overlap in the paper's
        // Figure 2; on the NPB set they should produce the same partition.
        for cs in [32_000e6, 1e9, 200e6] {
            let m = npb_models(cs);
            let mut rng = StdRng::seed_from_u64(0);
            let (a, _) = dominant_partition(&m, BuildOrder::Forward, Choice::MinRatio, &mut rng);
            let (b, _) = dominant_partition(&m, BuildOrder::Reverse, Choice::MaxRatio, &mut rng);
            assert_eq!(a, b, "Cs = {cs}");
        }
    }
}
