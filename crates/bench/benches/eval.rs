//! Scalar vs struct-of-arrays Eq. 2 makespan evaluation.
//!
//! The ISSUE-2 acceptance bar: at every measured `n` the SoA kernel
//! (`EvalSet::makespan`) must be no slower than the scalar reference path
//! walking `Application` structs. Both sides evaluate the identical
//! floating-point expression (results are bit-asserted before timing), so
//! the difference isolates the data layout. Results are recorded in
//! `BENCH_eval.json` at the repository root.

use coschedule::eval::EvalSet;
use coschedule::model::{exec_time, Platform};
use coschedule::solver::Instance;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::hint::black_box;
use workloads::synth::{Dataset, SeqFraction};

const SIZES: [usize; 3] = [16, 256, 4096];

fn setup(n: usize, platform: &Platform) -> (Instance, Vec<f64>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(0xE7A1);
    let apps = Dataset::NpbSynth.generate(n, SeqFraction::paper_default(), &mut rng);
    let instance = Instance::new(apps, platform.clone()).unwrap();
    // A plausible (not necessarily feasible) spread of resource vectors so
    // the kernel sees heterogeneous inputs rather than constants.
    let procs: Vec<f64> = (0..n)
        .map(|_| rng.random_range(0.5..2.0) * platform.processors / n as f64)
        .collect();
    let cache: Vec<f64> = (0..n)
        .map(|_| rng.random_range(0.1..1.9) / n as f64)
        .collect();
    (instance, procs, cache)
}

fn bench_makespan(c: &mut Criterion) {
    let platform = Platform::taihulight();
    let mut group = c.benchmark_group("eval_makespan");
    group
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    for &n in &SIZES {
        let (instance, procs, cache) = setup(n, &platform);
        let eval = instance.eval().clone();
        let apps = instance.apps().to_vec();
        // Both paths must compute the same value before we time them.
        let scalar_ref = apps
            .iter()
            .zip(&procs)
            .zip(&cache)
            .map(|((a, &p), &x)| exec_time(a, &platform, p, x))
            .fold(0.0, f64::max);
        assert_eq!(
            scalar_ref.to_bits(),
            eval.makespan(&procs, &cache).to_bits()
        );

        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    apps.iter()
                        .zip(&procs)
                        .zip(&cache)
                        .map(|((a, &p), &x)| exec_time(a, &platform, p, x))
                        .fold(0.0, f64::max),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("soa", n), &n, |b, _| {
            b.iter(|| black_box(eval.makespan(&procs, &cache)));
        });
    }
    group.finish();
}

fn bench_derivation(c: &mut Criterion) {
    // Cost of flattening an instance into the SoA view (paid once per
    // Instance, amortised over every subsequent kernel call).
    let platform = Platform::taihulight();
    let mut rng = StdRng::seed_from_u64(7);
    let apps = Dataset::NpbSynth.generate(256, SeqFraction::paper_default(), &mut rng);
    c.bench_function("eval_set_derivation_256", |b| {
        b.iter(|| black_box(EvalSet::of(&apps, &platform)));
    });
}

criterion_group!(benches, bench_makespan, bench_derivation);
criterion_main!(benches);
