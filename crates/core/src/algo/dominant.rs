//! Algorithms 1 and 2: greedy construction of dominant partitions (§5).

use crate::algo::choice::Choice;
use crate::eval::EvalSet;
use crate::theory::dominance::{is_dominant, violators, Partition};
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
/// The returned partition is always dominant (possibly empty).
pub fn dominant_partition<R: Rng + ?Sized>(
    eval: &EvalSet,
    order: BuildOrder,
    choice: Choice,
    rng: &mut R,
) -> Partition {
    match order {
        BuildOrder::Forward => forward(eval, choice, rng),
        BuildOrder::Reverse => reverse(eval, choice, rng),
    }
}

fn forward<R: Rng + ?Sized>(eval: &EvalSet, choice: Choice, rng: &mut R) -> Partition {
    let mut ic = Partition::all(eval.len());
    while !ic.is_empty() && !violators(eval, &ic).is_empty() {
        let k = choice.pick(ic.members(), eval.ratios(), rng);
        ic.remove(k);
    }
    ic
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn npb_models(cs: f64) -> EvalSet {
        let pf = Platform::taihulight().with_cache_size(cs);
        let apps = vec![
            Application::perfectly_parallel("CG", 5.70e10, 0.535, 6.59e-4),
            Application::perfectly_parallel("BT", 2.10e11, 0.829, 7.31e-3),
            Application::perfectly_parallel("LU", 1.52e11, 0.750, 1.51e-3),
            Application::perfectly_parallel("SP", 1.38e11, 0.762, 1.51e-2),
            Application::perfectly_parallel("MG", 1.23e10, 0.540, 2.62e-2),
            Application::perfectly_parallel("FT", 1.65e10, 0.582, 1.78e-2),
        ];
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
                let p = dominant_partition(&m, order, choice, &mut rng);
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
            let p = dominant_partition(&m, order, choice, &mut rng);
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
        let p = dominant_partition(&m, BuildOrder::Reverse, Choice::MaxRatio, &mut rng);
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
                let p1 = dominant_partition(&m, order, choice, &mut r1);
                let p2 = dominant_partition(&m, order, choice, &mut r2);
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
            let p = dominant_partition(&m, order, choice, &mut rng);
            assert!(!p.contains(0), "{}{}", order.name(), choice.name());
        }
    }

    #[test]
    fn empty_instance_yields_empty_partition() {
        let mut rng = StdRng::seed_from_u64(0);
        let empty = EvalSet::default();
        let p = dominant_partition(&empty, BuildOrder::Forward, Choice::MinRatio, &mut rng);
        assert!(p.is_empty());
        let p = dominant_partition(&empty, BuildOrder::Reverse, Choice::MaxRatio, &mut rng);
        assert!(p.is_empty());
    }

    #[test]
    fn forward_and_reverse_agree_on_best_pairings_for_npb() {
        // DominantMinRatio and DominantRevMaxRatio overlap in the paper's
        // Figure 2; on the NPB set they should produce the same partition.
        for cs in [32_000e6, 1e9, 200e6] {
            let m = npb_models(cs);
            let mut rng = StdRng::seed_from_u64(0);
            let a = dominant_partition(&m, BuildOrder::Forward, Choice::MinRatio, &mut rng);
            let b = dominant_partition(&m, BuildOrder::Reverse, Choice::MaxRatio, &mut rng);
            assert_eq!(a, b, "Cs = {cs}");
        }
    }
}
