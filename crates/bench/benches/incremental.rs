//! Incremental re-solve (session API) vs cold solve (one-shot API) under
//! single-application churn.
//!
//! The ISSUE-3 acceptance bar: at `n = 4096` the session path must be at
//! least 2× faster. Both sides serve the identical request stream — "app 0
//! changed its profile, give me the new DominantMinRatio schedule" — and
//! produce bit-identical outcomes (asserted before timing):
//!
//! * **cold** — what a stateless service must do per request: clone the
//!   application list into `Instance::new` (full re-validation and
//!   `EvalSet` derivation) and solve with a fresh context;
//! * **incremental** — `Session::resolve` after an
//!   `InstanceHandle::update_app` patch: one `EvalSet` column rewritten,
//!   solve runs on warm state with the recycled scratch.
//!
//! The mutation alternates between two profiles so every iteration really
//! changes the instance (no memo hits). Results are recorded in
//! `BENCH_incremental.json` at the repository root.

use coschedule::model::{Application, Platform};
use coschedule::session::Session;
use coschedule::solver::{self, Instance, SolveCtx};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use workloads::synth::{Dataset, SeqFraction};

const SIZES: [usize; 3] = [16, 256, 4096];
const SEED: u64 = 42;

fn base_apps(n: usize) -> Vec<Application> {
    let mut rng = StdRng::seed_from_u64(0x1AC);
    Dataset::NpbSynth.generate(n, SeqFraction::paper_default(), &mut rng)
}

/// The two profiles app 0 alternates between (a re-measured workload).
fn variants(apps: &[Application]) -> [Application; 2] {
    let a = apps[0].clone();
    let mut b = a.clone();
    b.work *= 1.25;
    b.seq_fraction = (b.seq_fraction + 0.01).min(1.0);
    [a, b]
}

fn bench_resolve_after_update(c: &mut Criterion) {
    let platform = Platform::taihulight();
    let solver = solver::by_name("DominantMinRatio").unwrap();
    let mut group = c.benchmark_group("incremental_resolve");
    group
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));

    for &n in &SIZES {
        let apps = base_apps(n);
        let [v0, v1] = variants(&apps);

        // Bit-identity of the two paths on both mutation states, before
        // any timing.
        let mut session = Session::new();
        let id = session.create(apps.clone(), platform.clone()).unwrap();
        for variant in [&v1, &v0] {
            session
                .handle(id)
                .unwrap()
                .update_app(0, variant.clone())
                .unwrap();
            let warm = session.resolve(id, solver.as_ref(), SEED).unwrap();
            let mut cold_apps = apps.clone();
            cold_apps[0] = variant.clone();
            let cold = solver
                .solve(
                    &Instance::new(cold_apps, platform.clone()).unwrap(),
                    &mut SolveCtx::seeded(SEED),
                )
                .unwrap();
            assert_eq!(warm, cold, "n = {n}: incremental diverged from cold");
        }

        // Cold: the stateless server. It owns the app list, applies the
        // mutation, then pays the full rebuild + solve per request.
        let mut cold_apps = apps.clone();
        let cold_variants = [v0.clone(), v1.clone()];
        let mut flip = 0usize;
        group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            b.iter(|| {
                flip ^= 1;
                cold_apps[0] = cold_variants[flip].clone();
                let instance = Instance::new(cold_apps.clone(), platform.clone()).unwrap();
                black_box(
                    solver
                        .solve(&instance, &mut SolveCtx::seeded(SEED))
                        .unwrap()
                        .makespan,
                )
            });
        });

        // Incremental: the session patches one column and re-solves warm.
        let mut session = Session::new();
        let id = session.create(apps.clone(), platform.clone()).unwrap();
        let _ = session.resolve(id, solver.as_ref(), SEED).unwrap();
        let warm_variants = [v0, v1];
        let mut flip = 0usize;
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| {
                flip ^= 1;
                session
                    .handle(id)
                    .unwrap()
                    .update_app(0, warm_variants[flip].clone())
                    .unwrap();
                black_box(session.resolve(id, solver.as_ref(), SEED).unwrap().makespan)
            });
        });
    }
    group.finish();
}

fn bench_join_leave_churn(c: &mut Criterion) {
    // The motivating scenario: one application joins, is scheduled, then
    // leaves — per event, cold pays the rebuild, the session one column.
    let platform = Platform::taihulight();
    let solver = solver::by_name("DominantMinRatio").unwrap();
    let mut group = c.benchmark_group("incremental_join_leave");
    group
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    let n = 4096;
    let apps = base_apps(n);
    let joiner = variants(&apps)[1].clone();

    let mut cold_apps = apps.clone();
    group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
        b.iter(|| {
            cold_apps.push(joiner.clone());
            let joined = Instance::new(cold_apps.clone(), platform.clone()).unwrap();
            let k1 = solver
                .solve(&joined, &mut SolveCtx::seeded(SEED))
                .unwrap()
                .makespan;
            cold_apps.pop();
            let left = Instance::new(cold_apps.clone(), platform.clone()).unwrap();
            let k2 = solver
                .solve(&left, &mut SolveCtx::seeded(SEED))
                .unwrap()
                .makespan;
            black_box((k1, k2))
        });
    });

    let mut session = Session::new();
    let id = session.create(apps, platform).unwrap();
    let _ = session.resolve(id, solver.as_ref(), SEED).unwrap();
    group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
        b.iter(|| {
            let index = session.handle(id).unwrap().add_app(joiner.clone()).unwrap();
            let k1 = session.resolve(id, solver.as_ref(), SEED).unwrap().makespan;
            session.handle(id).unwrap().remove_app(index).unwrap();
            let k2 = session.resolve(id, solver.as_ref(), SEED).unwrap().makespan;
            black_box((k1, k2))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_resolve_after_update, bench_join_leave_churn);
criterion_main!(benches);
