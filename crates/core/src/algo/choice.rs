//! Greedy choice functions for the dominant-partition heuristics (§5).

use rand::{Rng, RngExt as _};

/// The criterion used to pick the next application inside Algorithms 1–2.
///
/// `MinRatio`/`MaxRatio` compare the dominance ratio
/// `ratio_i = (w_i f_i d_i)^{1/(α+1)} / d_i^{1/α}` of Definition 4: an
/// application with a small ratio is the most likely to break dominance, so
/// the paper expects `Dominant`+`MinRatio` (evict weak apps first) and
/// `DominantRev`+`MaxRatio` (admit strong apps first) to perform best.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Choice {
    /// Pick uniformly at random.
    Random,
    /// Pick the application with the smallest dominance ratio.
    MinRatio,
    /// Pick the application with the largest dominance ratio.
    MaxRatio,
}

impl Choice {
    /// Picks one index out of `candidates` (which must be non-empty), given
    /// the dominance ratios of the instance
    /// ([`EvalSet::ratios`](crate::eval::EvalSet::ratios)).
    ///
    /// Ties on the ratio are broken by the smaller index, making the
    /// deterministic variants fully reproducible.
    pub fn pick<R: Rng + ?Sized>(self, candidates: &[usize], ratios: &[f64], rng: &mut R) -> usize {
        assert!(!candidates.is_empty(), "choice over an empty candidate set");
        match self {
            Self::Random => candidates[rng.random_range(0..candidates.len())],
            Self::MinRatio => candidates
                .iter()
                .copied()
                .min_by(|&a, &b| ratio_order(ratios, a, b))
                .expect("non-empty"),
            Self::MaxRatio => candidates
                .iter()
                .copied()
                .max_by(|&a, &b| {
                    ratios[a]
                        .partial_cmp(&ratios[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.cmp(&a))
                })
                .expect("non-empty"),
        }
    }

    /// Short name used in figures (`Random`, `MinRatio`, `MaxRatio`).
    pub fn name(self) -> &'static str {
        match self {
            Self::Random => "Random",
            Self::MinRatio => "MinRatio",
            Self::MaxRatio => "MaxRatio",
        }
    }

    /// The three choice functions, in paper order.
    pub const ALL: [Choice; 3] = [Self::Random, Self::MinRatio, Self::MaxRatio];
}

/// The `(ratio, index)` order `MinRatio` picks the least candidate of. A
/// NaN ratio compares equal to every ratio, so this is a total order only
/// when no ratio is NaN.
pub(crate) fn ratio_order(ratios: &[f64], a: usize, b: usize) -> std::cmp::Ordering {
    ratios[a]
        .partial_cmp(&ratios[b])
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.cmp(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalSet;
    use crate::model::{Application, Platform};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ratios() -> Vec<f64> {
        let pf = Platform::taihulight();
        let apps = vec![
            Application::perfectly_parallel("lo", 1e9, 0.1, 1e-3),
            Application::perfectly_parallel("hi", 1e12, 0.9, 1e-2),
            Application::perfectly_parallel("mid", 1e10, 0.5, 5e-3),
        ];
        EvalSet::of(&apps, &pf).ratios().to_vec()
    }

    #[test]
    fn min_and_max_ratio_pick_extremes() {
        let m = ratios();
        let mut rng = StdRng::seed_from_u64(0);
        let cands = vec![0, 1, 2];
        let lo = Choice::MinRatio.pick(&cands, &m, &mut rng);
        let hi = Choice::MaxRatio.pick(&cands, &m, &mut rng);
        assert_ne!(lo, hi);
        assert!(m[lo] <= m[hi]);
        for &c in &cands {
            assert!(m[lo] <= m[c]);
            assert!(m[hi] >= m[c]);
        }
    }

    #[test]
    fn respects_candidate_subset() {
        let m = ratios();
        let mut rng = StdRng::seed_from_u64(1);
        for choice in Choice::ALL {
            let k = choice.pick(&[1, 2], &m, &mut rng);
            assert!(k == 1 || k == 2);
        }
    }

    #[test]
    fn random_is_reproducible_under_seed() {
        let m = ratios();
        let cands = vec![0, 1, 2];
        let seq1: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..32)
                .map(|_| Choice::Random.pick(&cands, &m, &mut rng))
                .collect()
        };
        let seq2: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..32)
                .map(|_| Choice::Random.pick(&cands, &m, &mut rng))
                .collect()
        };
        assert_eq!(seq1, seq2);
    }

    #[test]
    fn random_eventually_picks_everything() {
        let m = ratios();
        let cands = vec![0, 1, 2];
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[Choice::Random.pick(&cands, &m, &mut rng)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    #[should_panic(expected = "empty candidate set")]
    fn empty_candidates_panic() {
        let m = ratios();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Choice::MinRatio.pick(&[], &m, &mut rng);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Choice::Random.name(), "Random");
        assert_eq!(Choice::MinRatio.name(), "MinRatio");
        assert_eq!(Choice::MaxRatio.name(), "MaxRatio");
    }
}
