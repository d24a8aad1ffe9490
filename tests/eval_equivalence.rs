//! Equivalence property suite: the struct-of-arrays kernels of
//! `coschedule::eval` must agree with the scalar Eq. 2 reference
//! implementation in `coschedule::model` — including the `procs <= 0 → +∞`
//! and `d = 0` edge cases — for random instances and random (infeasible
//! included) resource vectors.
//!
//! The kernels are written to perform the same floating-point operations
//! in the same order as the scalar path, so they agree *bit-for-bit*, and
//! the assertions below compare bits. Run them in release too: the
//! optimiser vectorises the kernels' loops there and nowhere else.

use coschedule::eval::{EvalScratch, EvalSet};
use coschedule::model::{exec_time, seq_cost, Application, Platform, Schedule};
use coschedule::theory::proc_alloc::{equal_finish_split, equal_finish_split_eval};
use proptest::prelude::*;

fn arb_app() -> impl Strategy<Value = (f64, f64, f64, f64, f64)> {
    (
        1e6f64..1e12,  // work
        0.0f64..0.6,   // seq fraction
        0.0f64..1.0,   // access frequency
        0.0f64..1.0,   // reference miss rate (0 exercises d = 0)
        0.001f64..2.0, // footprint as a multiple of the LLC
    )
}

fn build(rows: &[(f64, f64, f64, f64, f64)], platform: &Platform) -> Vec<Application> {
    rows.iter()
        .enumerate()
        .map(|(i, &(w, s, f, m, fp))| {
            let app = Application::new(format!("P{i}"), w, s, f, m);
            if fp < 1.0 {
                // Finite footprints below the LLC exercise the cap path.
                app.with_footprint(fp * platform.cache_size)
            } else {
                app
            }
        })
        .collect()
}

proptest! {
    /// Batched execution times and sequential costs agree with the scalar
    /// reference elementwise, and the makespan kernel with the Schedule
    /// evaluation, bit for bit — including non-positive processor shares,
    /// fractions of exactly 0 (`m = 1`, no power taken) and fractions
    /// above a finite footprint's cap (`x_eff = a/Cs`).
    #[test]
    fn kernels_agree_with_scalar_reference(
        rows in proptest::collection::vec(arb_app(), 1..12),
        procs_raw in proptest::collection::vec(-1.0f64..300.0, 12),
        cache_raw in proptest::collection::vec((0u8..4, 0.0f64..1.0), 12),
    ) {
        let platform = Platform::taihulight().with_cache_size(500e6);
        let apps = build(&rows, &platform);
        let n = apps.len();
        let procs = &procs_raw[..n];
        let cache: Vec<f64> = cache_raw[..n]
            .iter()
            .zip(&rows)
            .map(|(&(kind, x), &(.., fp))| match kind {
                0 => 0.0,
                // Between a finite cap and the whole LLC.
                1 if fp < 1.0 => fp + (1.0 - fp) * x,
                _ => x,
            })
            .collect();
        let cache = &cache[..];
        let eval = EvalSet::of(&apps, &platform);

        let mut times = Vec::new();
        eval.exec_times_into(procs, cache, &mut times);
        let mut costs = Vec::new();
        eval.seq_costs_into(cache, &mut costs);
        for i in 0..n {
            let scalar_t = exec_time(&apps[i], &platform, procs[i], cache[i]);
            prop_assert_eq!(times[i].to_bits(), scalar_t.to_bits(), "exec {}: {} vs {}", i, times[i], scalar_t);
            prop_assert_eq!(times[i].is_infinite(), procs[i] <= 0.0, "inf iff p <= 0");
            let scalar_c = seq_cost(&apps[i], &platform, cache[i]);
            prop_assert_eq!(costs[i].to_bits(), scalar_c.to_bits(), "seq {}: {} vs {}", i, costs[i], scalar_c);
        }
        let schedule = Schedule::from_parts(procs, cache);
        let scalar_mk = schedule.makespan(&apps, &platform);
        let soa_mk = eval.makespan(procs, cache);
        prop_assert_eq!(soa_mk.to_bits(), scalar_mk.to_bits(), "makespan {} vs {}", soa_mk, scalar_mk);
    }

    /// Applications that never miss (d = 0) evaluate identically on both
    /// paths for any fraction, including the zero-cache saturation.
    #[test]
    fn zero_d_edge_case_agrees(
        w in 1e6f64..1e12,
        s in 0.0f64..0.6,
        f in 0.0f64..1.0,
        p in 0.1f64..300.0,
        x in 0.0f64..1.0,
    ) {
        let platform = Platform::taihulight();
        let app = Application::new("Z", w, s, f, 0.0);
        let eval = EvalSet::of(std::slice::from_ref(&app), &platform);
        prop_assert_eq!(
            eval.exec_time_at(0, p, x).to_bits(),
            exec_time(&app, &platform, p, x).to_bits()
        );
        prop_assert_eq!(
            eval.seq_cost_at(0, x).to_bits(),
            seq_cost(&app, &platform, x).to_bits()
        );
    }

    /// The SoA equal-finish entry point (the bisection every heuristic
    /// rides on) is bit-identical to the scalar one on random instances
    /// and unnormalised cache vectors.
    #[test]
    fn equal_finish_paths_agree(
        rows in proptest::collection::vec(arb_app(), 1..10),
        cache_raw in proptest::collection::vec(0.0f64..0.5, 10),
    ) {
        let platform = Platform::taihulight().with_cache_size(800e6);
        let apps = build(&rows, &platform);
        let cache = &cache_raw[..apps.len()];
        let eval = EvalSet::of(&apps, &platform);
        let mut scratch = EvalScratch::new();
        let scalar = equal_finish_split(&apps, &platform, cache);
        let soa = equal_finish_split_eval(&eval, cache, &mut scratch);
        match (scalar, soa) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
                for (u, v) in a.procs.iter().zip(&b.procs) {
                    prop_assert_eq!(u.to_bits(), v.to_bits());
                }
            }
            (a, b) => prop_assert!(false, "paths diverged: {a:?} vs {b:?}"),
        }
    }
}
