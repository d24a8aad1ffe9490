//! Compare every registered solver — the six dominant-partition
//! heuristics, the three co-scheduling baselines, AllProcCache, and the
//! refined extension — on one random workload, against the exact optimum.
//!
//! ```text
//! cargo run --release --example heuristic_comparison
//! ```

use coschedule::algo::bnb;
use coschedule::model::Platform;
use coschedule::solver::{self, Instance, SolveCtx};
use workloads::rng::seeded_rng;
use workloads::synth::{Dataset, SeqFraction};

fn main() {
    // A small LLC stresses the partition decision: not everybody fits.
    let platform = Platform::taihulight().with_cache_size(150e6);
    let mut rng = seeded_rng(99);
    // Perfectly parallel instance so the exact solver applies (§4 theory) —
    // branch-and-bound proves the optimum well beyond the old 2^n reach.
    let apps = Dataset::Random.generate(32, SeqFraction::Zero, &mut rng);

    // The instance is validated and its derived state computed once, then
    // shared by the exact solver and every solver in the registry.
    let instance = Instance::new(apps, platform).expect("valid instance");

    let reference =
        bnb::branch_and_bound(&instance, &bnb::BnbConfig::default()).expect("exact solve");
    assert!(reference.optimal, "default budget must close n = 32");
    println!(
        "exact optimum: {:.4e} with |IC| = {} of {} applications in cache\n",
        reference.makespan,
        reference.partition.len(),
        instance.len()
    );

    let mut rows: Vec<(String, f64, usize)> = Vec::new();
    for s in solver::all() {
        // Average the randomized solvers over a few seeds.
        let runs = if s.is_randomized() { 32 } else { 1 };
        let mut total = 0.0;
        let mut cache_apps = 0;
        for seed in 0..runs {
            let o = s
                .solve(&instance, &mut SolveCtx::seeded(1000 + seed))
                .unwrap();
            total += o.makespan;
            cache_apps = o.partition.len();
        }
        rows.push((s.name(), total / runs as f64, cache_apps));
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

    println!(
        "{:<22} {:>12} {:>8} {:>10}",
        "solver", "makespan", "|IC|", "vs exact"
    );
    for (name, makespan, ic) in rows {
        println!(
            "{:<22} {:>12.4e} {:>8} {:>9.2}%",
            name,
            makespan,
            ic,
            (makespan / reference.makespan - 1.0) * 100.0
        );
    }
}
