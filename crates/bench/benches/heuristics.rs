//! Benchmarks of the scheduling algorithms themselves.
//!
//! The paper reports that all heuristics complete "within a very small
//! time (less than ten seconds in the worst of the settings used)"; these
//! benches quantify that claim for this implementation across instance
//! sizes, strategies, and the exact solver.

use coschedule::algo::{bnb, Strategy};
use coschedule::eval::EvalSet;
use coschedule::model::Platform;
use coschedule::solver::{Instance, SolveCtx, Solver};
use coschedule::theory::{cache_alloc, dominance};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use workloads::synth::{Dataset, SeqFraction};

fn bench_strategies(c: &mut Criterion) {
    let platform = Platform::taihulight();
    let mut group = c.benchmark_group("strategy_run");
    group
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    for &n in &[16usize, 64, 256] {
        let mut rng = StdRng::seed_from_u64(1);
        let apps = Dataset::NpbSynth.generate(n, SeqFraction::paper_default(), &mut rng);
        // The instance (validation + model derivation) is built once, so
        // each iteration times the solve itself.
        let instance = Instance::new(apps, platform.clone()).unwrap();
        let mut strategies = Strategy::all_coscheduling();
        strategies.push(Strategy::AllProcCache);
        for s in strategies {
            group.bench_with_input(
                BenchmarkId::new(Solver::name(&s), n),
                &instance,
                |b, instance| {
                    b.iter(|| {
                        let mut ctx = SolveCtx::seeded(7);
                        black_box(s.solve(instance, &mut ctx).unwrap().makespan)
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_theory_primitives(c: &mut Criterion) {
    let platform = Platform::taihulight();
    let mut rng = StdRng::seed_from_u64(2);
    let apps = Dataset::Random.generate(256, SeqFraction::Zero, &mut rng);
    let eval = EvalSet::of(&apps, &platform);
    let full = dominance::Partition::all(apps.len());

    c.bench_function("dominance_check_256", |b| {
        b.iter(|| black_box(dominance::is_dominant(&eval, &full)));
    });
    c.bench_function("theorem3_fractions_256", |b| {
        b.iter(|| {
            let mut x = Vec::new();
            cache_alloc::optimal_cache_fractions_into(eval.weights(), &full, &mut x);
            black_box(x)
        });
    });
    c.bench_function("exec_model_derivation_256", |b| {
        b.iter(|| black_box(EvalSet::of(&apps, &platform)));
    });
}

fn bench_exact_solver(c: &mut Criterion) {
    let platform = Platform::taihulight().with_cache_size(150e6);
    let mut group = c.benchmark_group("exact_solver");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    for &n in &[8usize, 12, 16] {
        let mut rng = StdRng::seed_from_u64(3);
        let apps = Dataset::Random.generate(n, SeqFraction::Zero, &mut rng);
        let instance = Instance::new(apps, platform.clone()).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &instance, |b, instance| {
            b.iter(|| {
                black_box(bnb::branch_and_bound(instance, &bnb::BnbConfig::default())).unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_strategies,
    bench_theory_primitives,
    bench_exact_solver
);
criterion_main!(benches);
