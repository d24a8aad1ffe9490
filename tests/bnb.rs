//! Integration tests of the branch-and-bound exact solver: bit-identity
//! with the `2^n` enumerator oracle, serial/parallel agreement, bound
//! admissibility, budget degradation, and proven optimality at a scale
//! the enumerators cannot touch.

use coschedule::algo::exact::{best_partition, exact_perfectly_parallel};
use coschedule::algo::{branch_and_bound, BnbConfig, BnbSolution, BnbStats};
use coschedule::eval::EvalStats;
use coschedule::model::{Application, Platform};
use coschedule::solver::Instance;
use coschedule::theory::{optimal_cache_fractions_into, Partition};
use proptest::prelude::*;
use rand::RngExt as _;
use workloads::rng::seeded_rng;
use workloads::synth::{Dataset, SeqFraction};

/// The paper's evaluation platform at a configurable LLC size; small
/// caches stress the partition decision (not everybody fits).
fn platform_with_cache(cs_mb: f64) -> Platform {
    Platform::taihulight().with_cache_size(cs_mb * 1e6)
}

/// `n` uniformly random perfectly parallel applications on a 45 MB LLC:
/// uncorrelated ratios make even `n = 30` take thousands of nodes.
fn random_pp_45mb(seed: u64, n: usize) -> Instance {
    let mut rng = seeded_rng(seed);
    let apps = (0..n)
        .map(|i| {
            Application::perfectly_parallel(
                format!("T{i}"),
                10f64.powf(rng.random_range(8.0..12.0)),
                rng.random_range(0.1..0.9),
                10f64.powf(rng.random_range(-4.0..-0.05)),
            )
        })
        .collect();
    Instance::new(apps, platform_with_cache(45.0)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On perfectly parallel instances the branch-and-bound optimum is
    /// bit-identical (makespan, partition, and fractions) to the dominant
    /// subset enumerator — the §4 ground truth — on every platform.
    #[test]
    fn bnb_matches_pp_enumerator_bit_for_bit(
        seed in 0u64..200,
        n in 2usize..13,
        cache_idx in 0usize..5,
    ) {
        let cs_mb = [45.0f64, 80.0, 100.0, 150.0, 32_000.0][cache_idx];
        let platform = platform_with_cache(cs_mb);
        let mut rng = seeded_rng(seed);
        let instance = Instance::new(Dataset::Random.generate(n, SeqFraction::Zero, &mut rng), platform).unwrap();
        let reference = exact_perfectly_parallel(&instance).unwrap();
        let sol = branch_and_bound(&instance, &BnbConfig::default()).unwrap();
        prop_assert!(sol.optimal);
        prop_assert_eq!(sol.makespan.to_bits(), reference.makespan.to_bits());
        prop_assert_eq!(&sol.partition, &reference.partition);
        prop_assert_eq!(&sol.cache, &reference.cache);
    }

    /// On Amdahl instances it is bit-identical to the all-subsets
    /// reference search (`best_partition`).
    #[test]
    fn bnb_matches_amdahl_enumerator_bit_for_bit(
        seed in 0u64..100,
        n in 2usize..9,
        kind in 0usize..3,
    ) {
        let platform = platform_with_cache(120.0);
        let mut rng = seeded_rng(seed);
        let instance = Instance::new(Dataset::ALL[kind].generate(n, SeqFraction::paper_default(), &mut rng), platform).unwrap();
        let reference = best_partition(&instance).unwrap();
        let sol = branch_and_bound(&instance, &BnbConfig::default()).unwrap();
        prop_assert!(sol.optimal);
        prop_assert_eq!(sol.makespan.to_bits(), reference.makespan.to_bits());
        prop_assert_eq!(&sol.partition, &reference.partition);
    }

    /// The node lower bounds are admissible: no budget-unconstrained
    /// search ever returns above the enumerator optimum (it would if a
    /// bound pruned the optimal leaf), and a *proven* optimum is returned
    /// for every seed.
    #[test]
    fn completed_searches_never_miss_the_optimum(
        seed in 0u64..100,
        n in 2usize..11,
    ) {
        let platform = platform_with_cache(60.0);
        let mut rng = seeded_rng(seed ^ 0xB0B);
        let instance = Instance::new(Dataset::NpbSynth.generate(n, SeqFraction::Zero, &mut rng), platform).unwrap();
        let reference = exact_perfectly_parallel(&instance).unwrap();
        let sol = branch_and_bound(&instance, &BnbConfig::default()).unwrap();
        prop_assert!(sol.optimal);
        prop_assert!(sol.makespan <= reference.makespan);
        prop_assert!(sol.makespan >= reference.makespan * (1.0 - 1e-12));
    }

    /// Serial and parallel searches return bit-identical answers across
    /// seeds and thread counts, on small random instances and on the
    /// pinned 5,044-node instance of `threads_1_search_order_is_pinned`.
    #[test]
    fn serial_and_parallel_searches_agree_bit_for_bit(
        seed in 0u64..64,
        n in 2usize..13,
        threads in 2usize..7,
        pinned in 0usize..2,
    ) {
        let instance = if pinned == 1 {
            random_pp_45mb(7, 30)
        } else {
            let mut rng = seeded_rng(seed ^ 0x5EED);
            Instance::new(Dataset::Random.generate(n, SeqFraction::Zero, &mut rng), platform_with_cache(100.0)).unwrap()
        };
        let serial = branch_and_bound(&instance, &BnbConfig::default()).unwrap();
        let parallel = branch_and_bound(&instance, &BnbConfig::default().with_threads(threads).with_seed(seed),
        )
        .unwrap();
        prop_assert!(serial.optimal && parallel.optimal);
        prop_assert_eq!(serial.makespan.to_bits(), parallel.makespan.to_bits());
        prop_assert_eq!(&serial.partition, &parallel.partition);
        prop_assert_eq!(&serial.cache, &parallel.cache);
    }

    /// Budget exhaustion is graceful: any node budget returns a finite
    /// incumbent no worse than the warm start, flagged `optimal = false`
    /// whenever the proof did not finish.
    #[test]
    fn budget_exhaustion_degrades_gracefully(
        seed in 0u64..50,
        budget in 0u64..32,
    ) {
        let platform = platform_with_cache(80.0);
        let mut rng = seeded_rng(seed ^ 0xCAFE);
        let instance = Instance::new(Dataset::Random.generate(12, SeqFraction::Zero, &mut rng), platform).unwrap();
        let full = branch_and_bound(&instance, &BnbConfig::default()).unwrap();
        let cut = branch_and_bound(&instance, &BnbConfig::default().with_max_nodes(budget),
        )
        .unwrap();
        prop_assert!(cut.makespan.is_finite());
        prop_assert!(cut.makespan >= full.makespan * (1.0 - 1e-12));
        if cut.optimal {
            // A search that claims optimality must actually have it.
            prop_assert_eq!(cut.makespan.to_bits(), full.makespan.to_bits());
        }
    }
}

/// The scale the enumerators could never reach: an NPB-derived instance
/// with `n = 200` applications is solved to *proven* optimality on the
/// paper's evaluation platform within the default node budget.
#[test]
fn proves_optimality_at_n_200() {
    let profiles = [
        ("CG", 0.535, 6.59e-4),
        ("BT", 0.829, 7.31e-3),
        ("LU", 0.750, 1.51e-3),
        ("SP", 0.762, 1.51e-2),
        ("MG", 0.540, 2.62e-2),
        ("FT", 0.582, 1.78e-2),
    ];
    let mut rng = seeded_rng(7);
    use rand::RngExt as _;
    let apps: Vec<Application> = (0..200)
        .map(|i| {
            let (name, f, m) = profiles[i % 6];
            let work = rng.random_range(1e8..=1e12);
            Application::perfectly_parallel(format!("{name}-{i}"), work, f, m)
        })
        .collect();
    let instance = Instance::new(apps, Platform::taihulight()).unwrap();
    let sol = branch_and_bound(&instance, &BnbConfig::default()).unwrap();
    assert!(sol.optimal, "default budget must close n = 200");
    assert!(
        sol.stats.nodes_expanded < 10_000,
        "Theorem-3 + relaxed bounds should prove n = 200 in few nodes, took {}",
        sol.stats.nodes_expanded
    );
    let parallel = branch_and_bound(&instance, &BnbConfig::default().with_threads(4)).unwrap();
    assert_eq!(sol.makespan.to_bits(), parallel.makespan.to_bits());
    assert_eq!(sol.partition, parallel.partition);
}

/// A fixed case: the perfectly-parallel NPB-6 instance. The search must
/// return the enumerator's optimum bit for bit, with fewer nodes than
/// the `2^6 = 64` subsets plain enumeration scans; the 4-thread search
/// must agree; and a zero-node budget degrades to a finite incumbent
/// flagged `optimal = false` instead of erroring.
#[test]
fn npb6_matches_the_enumerator_in_at_most_64_nodes() {
    let instance = Instance::new(workloads::npb::npb6(&[0.0]), Platform::taihulight()).unwrap();
    let reference = exact_perfectly_parallel(&instance).unwrap();
    let serial = branch_and_bound(&instance, &BnbConfig::default()).unwrap();
    assert!(serial.optimal);
    assert_eq!(serial.makespan.to_bits(), reference.makespan.to_bits());
    assert_eq!(serial.partition, reference.partition);
    assert_eq!(serial.cache, reference.cache);
    assert!(serial.stats.nodes_expanded <= 64, "{:?}", serial.stats);
    let parallel = branch_and_bound(&instance, &BnbConfig::default().with_threads(4)).unwrap();
    assert!(parallel.optimal);
    assert_eq!(parallel.makespan.to_bits(), serial.makespan.to_bits());
    assert_eq!(
        (parallel.partition, parallel.cache),
        (serial.partition, serial.cache)
    );
    let cut = branch_and_bound(&instance, &BnbConfig::default().with_max_nodes(0)).unwrap();
    assert!(!cut.optimal && cut.makespan.is_finite());
}

/// A `BnbSolution` for `members` of `instance`, with the partition's
/// Theorem-3 fractions.
fn solution(
    instance: &Instance,
    members: Vec<usize>,
    makespan_bits: u64,
    optimal: bool,
    stats: BnbStats,
    eval_stats: EvalStats,
) -> BnbSolution {
    let partition = Partition::new(members);
    let mut cache = Vec::new();
    optimal_cache_fractions_into(instance.eval().weights(), &partition, &mut cache);
    BnbSolution {
        partition,
        cache,
        makespan: f64::from_bits(makespan_bits),
        optimal,
        stats,
        eval_stats,
    }
}

/// The `threads = 1` search visits nodes in one fixed order, so its whole
/// answer is reproducible: partition, fractions, makespan bits,
/// optimality, and both effort counters. One instance is proved optimal
/// after 5,044 nodes; the other is cut by a 2,000-node budget and
/// returns its incumbent.
#[test]
fn threads_1_search_order_is_pinned() {
    let instance = random_pp_45mb(7, 30);
    let completed = solution(
        &instance,
        vec![
            1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15, 16, 18, 19, 20, 21, 23, 24, 27, 28,
        ],
        0x41fa_889c_b92d_ee2b,
        true,
        BnbStats {
            nodes_expanded: 5044,
            nodes_pruned_bound: 5030,
            nodes_pruned_dominance: 5,
            leaves_evaluated: 5,
        },
        EvalStats {
            kernel_calls: 10080,
            apps_evaluated: 302_400,
        },
    );
    assert_eq!(
        branch_and_bound(&instance, &BnbConfig::default()).unwrap(),
        completed
    );

    let instance = random_pp_45mb(5, 30);
    let cut = solution(
        &instance,
        vec![
            0, 3, 4, 5, 6, 7, 10, 11, 12, 13, 18, 19, 20, 21, 23, 26, 27, 28, 29,
        ],
        0x4220_55e4_1e87_5007,
        false,
        BnbStats {
            nodes_expanded: 2000,
            nodes_pruned_bound: 728,
            nodes_pruned_dominance: 0,
            leaves_evaluated: 1,
        },
        EvalStats {
            kernel_calls: 4001,
            apps_evaluated: 120_030,
        },
    );
    assert_eq!(
        branch_and_bound(&instance, &BnbConfig::default().with_max_nodes(2000)).unwrap(),
        cut
    );
}
