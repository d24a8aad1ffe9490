//! Dominant partitions (paper Definition 4 and Theorem 2).
//!
//! A partition is described by the subset `IC ⊆ {0, …, n-1}` of applications
//! that receive a cache fraction; the complement receives none. `IC` is
//! *dominant* when the closed-form optimal fractions of Theorem 3 satisfy
//! the strict useful-cache constraint `x_i > d_i^{1/α}` for every `i ∈ IC`,
//! which rewrites as `ratio_i > S(IC)` with
//! `ratio_i = (w_i f_i d_i)^{1/(α+1)} / d_i^{1/α}` and
//! `S(IC) = Σ_{j∈IC} (w_j f_j d_j)^{1/(α+1)}`.
//!
//! # Dominance as a pruning theory
//!
//! Three structural consequences turn this definition into the search
//! theory behind [`algo::bnb`](crate::algo::bnb):
//!
//! * **Downward monotonicity of strength.** `S(IC)` only grows as members
//!   join, so once `ratio_i ≤ S(M)` holds at a partial set `M`, it holds
//!   for every superset: `i` can never join a dominant completion of `M`.
//!   This is what lets a branch-and-bound node reject an include-child
//!   with the *local* test `ratio_i > S(M) + w_i` (the strength the set
//!   would have after the join) and close a frontier early when even the
//!   next-largest remaining ratio fails it.
//! * **Optimistic fractions bound Theorem 3 from above.** Any dominant
//!   completion `D ⊇ M` has `S(D) ≥ S(M)`, and `S(D) ≥ S(M) + w_i` when
//!   it includes an undecided `i`, so the Theorem-3 fraction
//!   `x_i = w_i / S(D)` is at most `w_i / S(M)` (members) or
//!   `w_i / (S(M) + w_i)` (undecided). Since the sequential cost is
//!   non-increasing in the fraction, evaluating it at those optimistic
//!   fractions *under-estimates* every completion — an admissible lower
//!   bound obtained in one pass from the same closed form the leaf
//!   kernels use.
//! * **A failed ratio pins full miss.** If `ratio_i ≤ S(M) + w_i`, no
//!   dominant completion can contain `i` (joining would push the final
//!   strength past what `ratio_i` must strictly exceed), so a bound may
//!   charge `i` its full-miss cost `Exe_i^seq(0)` outright — the
//!   strengthening that closes NPB-scale instances in `O(n)` nodes.

use crate::eval::EvalSet;

/// A cache-sharing partition: the sorted set of application indices in `IC`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Partition {
    in_cache: Vec<usize>,
}

impl Partition {
    /// Builds a partition from arbitrary indices (sorted, deduplicated).
    pub fn new(mut indices: Vec<usize>) -> Self {
        indices.sort_unstable();
        indices.dedup();
        Self { in_cache: indices }
    }

    /// The empty partition (`IC = ∅`): nobody gets cache.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The full partition (`IC = {0, …, n-1}`): everybody shares the cache.
    pub fn all(n: usize) -> Self {
        Self {
            in_cache: (0..n).collect(),
        }
    }

    /// Indices in `IC`, sorted ascending.
    pub fn members(&self) -> &[usize] {
        &self.in_cache
    }

    /// Number of applications in `IC`.
    pub fn len(&self) -> usize {
        self.in_cache.len()
    }

    /// `true` iff `IC = ∅`.
    pub fn is_empty(&self) -> bool {
        self.in_cache.is_empty()
    }

    /// Membership test (binary search — members are sorted).
    pub fn contains(&self, index: usize) -> bool {
        self.in_cache.binary_search(&index).is_ok()
    }

    /// Removes an index if present; returns whether it was a member.
    pub fn remove(&mut self, index: usize) -> bool {
        match self.in_cache.binary_search(&index) {
            Ok(pos) => {
                self.in_cache.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Inserts an index (no-op if already present).
    pub fn insert(&mut self, index: usize) {
        if let Err(pos) = self.in_cache.binary_search(&index) {
            self.in_cache.insert(pos, index);
        }
    }
}

impl FromIterator<usize> for Partition {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

/// `S(IC) = Σ_{j ∈ IC} (w_j f_j d_j)^{1/(α+1)}` — the *strength* of the
/// partition, i.e. the normalising denominator of Theorem 3.
pub fn partition_strength(eval: &EvalSet, partition: &Partition) -> f64 {
    partition.members().iter().map(|&i| eval.weights()[i]).sum()
}

/// Definition 4: `IC` is dominant iff `ratio_i > S(IC)` for every `i ∈ IC`.
///
/// The empty partition is vacuously dominant.
pub fn is_dominant(eval: &EvalSet, partition: &Partition) -> bool {
    let strength = partition_strength(eval, partition);
    partition
        .members()
        .iter()
        .all(|&i| eval.ratios()[i] > strength)
}

/// Indices in `IC` that violate dominance (`ratio_i ≤ S(IC)`). Theorem 2
/// shows each can be evicted to strictly improve the solution.
pub fn violators(eval: &EvalSet, partition: &Partition) -> Vec<usize> {
    let strength = partition_strength(eval, partition);
    partition
        .members()
        .iter()
        .copied()
        .filter(|&i| eval.ratios()[i] <= strength)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Application, Platform};

    fn npb() -> EvalSet {
        let pf = Platform::taihulight();
        let apps = vec![
            Application::new("CG", 5.70e10, 0.0, 0.535, 6.59e-4),
            Application::new("BT", 2.10e11, 0.0, 0.829, 7.31e-3),
            Application::new("LU", 1.52e11, 0.0, 0.750, 1.51e-3),
            Application::new("SP", 1.38e11, 0.0, 0.762, 1.51e-2),
            Application::new("MG", 1.23e10, 0.0, 0.540, 2.62e-2),
            Application::new("FT", 1.65e10, 0.0, 0.582, 1.78e-2),
        ];
        EvalSet::of(&apps, &pf)
    }

    #[test]
    fn partition_set_semantics() {
        let mut p = Partition::new(vec![3, 1, 1, 2]);
        assert_eq!(p.members(), &[1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(p.contains(2));
        assert!(!p.contains(0));
        assert!(p.remove(2));
        assert!(!p.remove(2));
        p.insert(0);
        p.insert(0);
        assert_eq!(p.members(), &[0, 1, 3]);
    }

    #[test]
    fn all_and_empty() {
        assert_eq!(Partition::all(3).members(), &[0, 1, 2]);
        assert!(Partition::empty().is_empty());
        assert_eq!(Partition::all(0), Partition::empty());
    }

    #[test]
    fn from_iterator() {
        let p: Partition = [4, 0, 4].into_iter().collect();
        assert_eq!(p.members(), &[0, 4]);
    }

    #[test]
    fn strength_is_sum_of_weights() {
        let m = npb();
        let p = Partition::new(vec![0, 2]);
        assert!((partition_strength(&m, &p) - (m.weights()[0] + m.weights()[2])).abs() < 1e-9);
        assert_eq!(partition_strength(&m, &Partition::empty()), 0.0);
    }

    #[test]
    fn empty_partition_is_dominant() {
        assert!(is_dominant(&npb(), &Partition::empty()));
    }

    #[test]
    fn npb_full_partition_is_dominant_on_taihulight() {
        // With the paper's 32 GB LLC the miss rates are tiny, so all six NPB
        // applications can share the cache (this matches Figure 1, where all
        // dominant heuristics coincide).
        let m = npb();
        assert!(is_dominant(&m, &Partition::all(m.len())));
        assert!(violators(&m, &Partition::all(m.len())).is_empty());
    }

    #[test]
    fn high_miss_rate_breaks_dominance() {
        // Jack the miss rates up on a tiny LLC: thresholds d^{1/alpha}
        // explode and applications become violators.
        let pf = Platform::taihulight().with_cache_size(45e6);
        let apps = vec![
            Application::new("A", 1e10, 0.0, 0.5, 0.9),
            Application::new("B", 1e10, 0.0, 0.5, 0.9),
        ];
        let m = EvalSet::of(&apps, &pf);
        let full = Partition::all(2);
        assert!(!is_dominant(&m, &full));
        assert!(!violators(&m, &full).is_empty());
    }

    #[test]
    fn singleton_dominance_iff_d_below_one() {
        // ratio > weight  <=>  d^{1/alpha} < 1  <=>  d < 1.
        let pf = Platform::taihulight();
        let good = Application::new("G", 1e10, 0.0, 0.5, 1e-3);
        let m = EvalSet::of(&[good], &pf);
        assert!(is_dominant(&m, &Partition::new(vec![0])));

        let pf_tiny = pf.with_cache_size(1e6); // d = m0*(40)^0.5 > 1
        let bad = Application::new("B", 1e10, 0.0, 0.5, 0.9);
        let m = EvalSet::of(&[bad], &pf_tiny);
        assert!(m.d()[0] > 1.0);
        assert!(!is_dominant(&m, &Partition::new(vec![0])));
    }

    #[test]
    fn violators_subset_of_members() {
        let m = npb();
        let p = Partition::all(m.len());
        for v in violators(&m, &p) {
            assert!(p.contains(v));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_models(n: usize) -> impl Strategy<Value = EvalSet> {
            proptest::collection::vec((1e8f64..1e12, 0.1f64..0.9, 1e-4f64..5e-1), 1..=n).prop_map(
                |rows| {
                    let pf = Platform::taihulight().with_cache_size(200e6);
                    let apps: Vec<Application> = rows
                        .into_iter()
                        .enumerate()
                        .map(|(i, (w, f, m))| {
                            Application::perfectly_parallel(format!("P{i}"), w, f, m)
                        })
                        .collect();
                    EvalSet::of(&apps, &pf)
                },
            )
        }

        proptest! {
            /// Dominance is downward closed: removing any member of a
            /// dominant partition keeps it dominant. (This is why
            /// Algorithm 1 and Algorithm 2 both terminate on the same
            /// ratio-sorted prefix and never need backtracking.)
            #[test]
            fn dominance_is_downward_closed(models in arb_models(10)) {
                let full = Partition::all(models.len());
                // Find some dominant partition by stripping violators.
                let mut p = full;
                while !is_dominant(&models, &p) {
                    let v = violators(&models, &p);
                    let k = v[0];
                    p.remove(k);
                }
                prop_assume!(!p.is_empty());
                for &k in p.members() {
                    let mut q = p.clone();
                    q.remove(k);
                    prop_assert!(
                        is_dominant(&models, &q),
                        "removing {k} broke dominance"
                    );
                }
            }

            /// Adding an application never decreases the strength.
            #[test]
            fn strength_is_monotone(models in arb_models(10)) {
                let mut p = Partition::empty();
                let mut prev = 0.0;
                for i in 0..models.len() {
                    p.insert(i);
                    let s = partition_strength(&models, &p);
                    prop_assert!(s >= prev);
                    prev = s;
                }
            }
        }
    }
}
