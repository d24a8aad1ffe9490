//! Branch-and-bound exact solver at scale — the ISSUE-9 acceptance
//! measurement, recorded in `BENCH_exact.json`.
//!
//! Three groups:
//!
//! * correctness gates asserted before timing — B&B bit-identical to the
//!   `2^n` enumerator at `n = 16`, the 1-thread search bit-identical to
//!   the 4-thread one on a 400k-node instance;
//! * `exact_vs_enumerator` — wall time of the enumerator against
//!   branch-and-bound on the same instances (`n = 12, 16, 20`);
//! * `exact_scaling` — branch-and-bound alone on NPB-derived instances
//!   far beyond the enumerators' `n ≤ 24` guard, plus the printed
//!   per-cell node counts and the optimality-gap table of every
//!   registered heuristic at `n = 200` (gaps certified against the
//!   *proven* optimum, something the enumerators could never supply).

use coschedule::algo::exact::exact_perfectly_parallel;
use coschedule::algo::{branch_and_bound, BnbConfig};
use coschedule::model::{Application, Platform};
use coschedule::solver::{self, Instance, SolveCtx};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// NPB-SYNTH-style perfectly parallel workload: the six Table-2 profiles
/// cycled with redrawn work.
fn npb_synth(seed: u64, n: usize) -> Vec<Application> {
    let profiles = [
        ("CG", 0.535, 6.59e-4),
        ("BT", 0.829, 7.31e-3),
        ("LU", 0.750, 1.51e-3),
        ("SP", 0.762, 1.51e-2),
        ("MG", 0.540, 2.62e-2),
        ("FT", 0.582, 1.78e-2),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let (name, f, m) = profiles[i % 6];
            let work = rng.random_range(1e8..=1e12);
            Application::perfectly_parallel(format!("{name}-{i}"), work, f, m)
        })
        .collect()
}

/// Uniformly random perfectly parallel workload — the adversarial family
/// (uncorrelated ratios defeat the bounds far sooner than NPB profiles).
fn random_pp(seed: u64, n: usize) -> Vec<Application> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            Application::perfectly_parallel(
                format!("T{i}"),
                10f64.powf(rng.random_range(8.0..12.0)),
                rng.random_range(0.1..0.9),
                10f64.powf(rng.random_range(-4.0..-0.05)),
            )
        })
        .collect()
}

fn bench_exact(c: &mut Criterion) {
    // Gate 1: branch-and-bound returns the enumerator's answer bit for
    // bit (makespan, partition, fractions) on an instance near the
    // enumerator's practical limit.
    let platform_150 = Platform::taihulight().with_cache_size(150e6);
    let inst16 = Instance::new(random_pp(3, 16), platform_150.clone()).unwrap();
    let reference = exact_perfectly_parallel(&inst16).unwrap();
    let sol = branch_and_bound(&inst16, &BnbConfig::default()).unwrap();
    assert!(sol.optimal);
    assert_eq!(sol.makespan.to_bits(), reference.makespan.to_bits());
    assert_eq!(sol.partition, reference.partition);
    assert_eq!(sol.cache, reference.cache);

    // Gate 2: the 4-thread search agrees with the 1-thread one bit for
    // bit on a genuinely hard instance (~400k nodes), and both prove
    // optimality. Timed by hand for the 1-vs-4-thread row of
    // BENCH_exact.json.
    let platform_45 = Platform::taihulight().with_cache_size(45e6);
    let hard = random_pp(7, 120);
    let hard_inst = Instance::new(hard.clone(), platform_45.clone()).unwrap();
    let t = Instant::now();
    let one = branch_and_bound(&hard_inst, &BnbConfig::default()).unwrap();
    let one_wall = t.elapsed();
    let t = Instant::now();
    let parallel = branch_and_bound(&hard_inst, &BnbConfig::default().with_threads(4)).unwrap();
    let parallel_wall = t.elapsed();
    assert!(one.optimal && parallel.optimal);
    assert_eq!(one.makespan.to_bits(), parallel.makespan.to_bits());
    assert_eq!(one.partition, parallel.partition);
    assert_eq!(one.cache, parallel.cache);
    println!(
        "hard instance (random n=120, 45 MB LLC): 1-thread {} nodes in {:.2}s, \
         4-thread {} nodes in {:.2}s, speedup {:.2}x on {} available cores",
        one.stats.nodes_expanded,
        one_wall.as_secs_f64(),
        parallel.stats.nodes_expanded,
        parallel_wall.as_secs_f64(),
        one_wall.as_secs_f64() / parallel_wall.as_secs_f64(),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );

    // Scaling cells: proven optima far beyond the enumerators' n <= 24.
    for (label, apps, platform) in [
        ("npb-synth-50", npb_synth(7, 50), Platform::taihulight()),
        ("npb-synth-200", npb_synth(7, 200), Platform::taihulight()),
        ("npb-synth-500", npb_synth(7, 500), Platform::taihulight()),
        ("npb-synth-2000", npb_synth(7, 2000), Platform::taihulight()),
        (
            "npb-synth-200-1gb",
            npb_synth(7, 200),
            Platform::taihulight().with_cache_size(1e9),
        ),
        ("random-100-45mb", random_pp(7, 100), platform_45.clone()),
        ("random-120-45mb", hard.clone(), platform_45.clone()),
    ] {
        let t = Instant::now();
        let n = apps.len();
        let sol = Instance::new(apps, platform)
            .and_then(|instance| branch_and_bound(&instance, &BnbConfig::default()))
            .unwrap();
        println!(
            "{label}: n={} optimal={} nodes={} bound_pruned={} leaves={} |IC|={} wall_ms={:.2}",
            n,
            sol.optimal,
            sol.stats.nodes_expanded,
            sol.stats.nodes_pruned_bound,
            sol.stats.leaves_evaluated,
            sol.partition.len(),
            t.elapsed().as_secs_f64() * 1e3,
        );
    }

    // Optimality-gap tables: every registered heuristic against the
    // *proven* optimum, far past the enumerators' reach. Two regimes: the
    // paper platform at n = 200 (plenty of LLC — the dominant heuristics
    // should all be optimal) and a 45 MB LLC at n = 100 (where only 63 of
    // 100 applications fit in the optimal partition and the heuristics
    // separate). Randomized solvers are averaged over 32 seeds.
    for (label, apps, platform) in [
        ("npb-synth-200", npb_synth(7, 200), Platform::taihulight()),
        ("random-100-45mb", random_pp(7, 100), platform_45.clone()),
    ] {
        let instance = Instance::new(apps, platform).unwrap();
        let optimum = branch_and_bound(&instance, &BnbConfig::default()).unwrap();
        assert!(optimum.optimal, "gap table requires a proven optimum");
        println!(
            "gap table [{label}] vs proven optimum {:.6e}:",
            optimum.makespan
        );
        for s in solver::all() {
            let runs = if s.is_randomized() { 32 } else { 1 };
            let mut total = 0.0;
            for seed in 0..runs {
                total += s
                    .solve(&instance, &mut SolveCtx::seeded(1000 + seed))
                    .unwrap()
                    .makespan;
            }
            let mean = total / runs as f64;
            println!(
                "gap [{label}] {}: makespan={:.6e} gap_pct={:.4}",
                s.name(),
                mean,
                (mean / optimum.makespan - 1.0) * 100.0
            );
        }
    }

    // Timed groups. Enumerator n is capped at 20 (2^20 subsets ~ seconds);
    // branch-and-bound runs the same cells for the head-to-head, then the
    // flagship n = 200 cell alone.
    let mut group = c.benchmark_group("exact_vs_enumerator");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    for &n in &[12usize, 16, 20] {
        let instance = Instance::new(random_pp(3, n), platform_150.clone()).unwrap();
        group.bench_with_input(
            BenchmarkId::new("enumerator", n),
            &instance,
            |b, instance| {
                b.iter(|| black_box(exact_perfectly_parallel(instance).unwrap().makespan));
            },
        );
        group.bench_with_input(BenchmarkId::new("bnb", n), &instance, |b, instance| {
            b.iter(|| {
                black_box(
                    branch_and_bound(instance, &BnbConfig::default())
                        .unwrap()
                        .makespan,
                )
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("exact_scaling");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    let inst200 = Instance::new(npb_synth(7, 200), Platform::taihulight()).unwrap();
    group.bench_function("npb_synth_200", |b| {
        b.iter(|| {
            black_box(
                branch_and_bound(&inst200, &BnbConfig::default())
                    .unwrap()
                    .makespan,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_exact);
criterion_main!(benches);
