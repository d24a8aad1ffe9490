//! Eval-kernel edge cases the session mutations hit: `n = 0` and `n = 1`
//! sets, removing the last application, and join/leave round-trips that
//! must restore bit-identical `EvalSet` contents.
//!
//! Companion to `tests/eval_equivalence.rs` (which pins the kernels to the
//! scalar reference on *static* instances); here the instances *churn*
//! through `coschedule::session` mutations.

use coschedule::model::{Application, Platform};
use coschedule::session::Session;
use coschedule::solver::Instance;
use coschedule::{CoschedError, EvalSet};
use proptest::prelude::*;

fn pf() -> Platform {
    Platform::taihulight()
}

/// Bit-exact comparison over every column the kernels read.
fn assert_eval_bits_equal(a: &EvalSet, b: &EvalSet, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length");
    let columns: [(&str, &[f64], &[f64]); 8] = [
        ("work", a.work(), b.work()),
        ("seq_fraction", a.seq_fractions(), b.seq_fractions()),
        ("access_freq", a.access_freqs(), b.access_freqs()),
        ("cap", a.caps(), b.caps()),
        ("d", a.d(), b.d()),
        ("weight", a.weights(), b.weights()),
        ("threshold", a.thresholds(), b.thresholds()),
        ("ratio", a.ratios(), b.ratios()),
    ];
    for (name, left, right) in columns {
        for (i, (x, y)) in left.iter().zip(right).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{context}: column {name}, app {i} ({x:?} vs {y:?})"
            );
        }
    }
}

#[test]
fn empty_eval_set_kernels_are_total() {
    // `n = 0` never reaches a solver (instances are non-empty), but the
    // kernels themselves must stay total: the simulator-validation path
    // calls them on raw app slices.
    let eval = EvalSet::of(&[], &pf());
    assert!(eval.is_empty());
    assert_eq!(eval.len(), 0);
    assert_eq!(eval.makespan(&[], &[]), 0.0);
    assert_eq!(eval.sequential_makespan(), 0.0);
    let mut out = vec![99.0];
    eval.seq_costs_into(&[], &mut out);
    assert!(out.is_empty(), "kernels clear their output buffers");
    eval.exec_times_into(&[], &[], &mut out);
    assert!(out.is_empty());
    eval.power_law_miss_rates_into(&[], &mut out);
    assert!(out.is_empty());
}

#[test]
fn single_app_instance_solves_and_mutates() {
    let cg = Application::new("CG", 5.70e10, 0.05, 0.535, 6.59e-4);
    let mut session = Session::new();
    let id = session.create(vec![cg.clone()], pf()).unwrap();
    // n = 1: the whole machine and cache go to the only application.
    let outcome = session.resolve_by_name(id, "DominantMinRatio", 0).unwrap();
    assert_eq!(outcome.schedule.len(), 1);
    assert!((outcome.schedule.assignments[0].procs - 256.0).abs() < 1e-6);
    assert!((outcome.schedule.assignments[0].cache - 1.0).abs() < 1e-12);

    // Removing the last application is rejected and changes nothing.
    let err = session.handle(id).unwrap().remove_app(0).unwrap_err();
    assert_eq!(err, CoschedError::EmptyInstance);
    assert_eq!(session.revision(id).unwrap(), 0);
    assert_eq!(session.instance(id).unwrap().apps(), &[cg.clone()][..]);

    // Grow to 2, shrink back to 1 — now removal of the *other* app works
    // and the survivor still solves.
    {
        let mut handle = session.handle(id).unwrap();
        handle
            .add_app(Application::new("BT", 2.10e11, 0.03, 0.829, 7.31e-3))
            .unwrap();
        handle.remove_app(0).unwrap();
        assert_eq!(handle.len(), 1);
        assert_eq!(handle.instance().apps()[0].name, "BT");
    }
    let outcome = session.resolve_by_name(id, "DominantMinRatio", 0).unwrap();
    assert!((outcome.schedule.assignments[0].cache - 1.0).abs() < 1e-12);
}

fn arb_app_row() -> impl Strategy<Value = (f64, f64, f64, f64, f64)> {
    (
        1e6f64..1e12,  // work
        0.0f64..0.6,   // seq fraction
        0.0f64..1.0,   // access frequency
        0.0f64..1.0,   // reference miss rate (0 exercises d = 0)
        0.001f64..2.0, // footprint as a multiple of the LLC (>= 1 → unbounded)
    )
}

fn build_app(i: usize, row: (f64, f64, f64, f64, f64), platform: &Platform) -> Application {
    let (w, s, f, m, fp) = row;
    let app = Application::new(format!("P{i}"), w, s, f, m);
    if fp < 1.0 {
        app.with_footprint(fp * platform.cache_size)
    } else {
        app
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `add_app` → `remove_app` of the same (last) application restores
    /// the `EvalSet` bit-for-bit: join/leave churn can never corrupt the
    /// cached derived state of the surviving applications.
    #[test]
    fn add_then_remove_restores_eval_set_bits(
        rows in proptest::collection::vec(arb_app_row(), 1..10),
        joiner in arb_app_row(),
    ) {
        let platform = pf();
        let apps: Vec<Application> = rows
            .iter()
            .enumerate()
            .map(|(i, &row)| build_app(i, row, &platform))
            .collect();
        let mut session = Session::new();
        let id = session.create(apps.clone(), platform.clone()).unwrap();
        let baseline = session.instance(id).unwrap().eval().clone();

        let n = apps.len();
        {
            let mut handle = session.handle(id).unwrap();
            let index = handle.add_app(build_app(99, joiner, &platform)).unwrap();
            prop_assert_eq!(index, n);
            handle.remove_app(index).unwrap();
        }

        let restored = session.instance(id).unwrap().eval();
        assert_eval_bits_equal(restored, &baseline, "after add→remove");
        // And both equal a from-scratch rebuild of the same apps.
        let rebuilt = Instance::new(apps, platform).unwrap();
        assert_eval_bits_equal(restored, rebuilt.eval(), "vs rebuild");
    }

    /// Removing an *interior* application leaves exactly the rebuild of
    /// the remaining list (tail columns shift, values untouched).
    #[test]
    fn interior_removal_matches_rebuild_bits(
        rows in proptest::collection::vec(arb_app_row(), 2..10),
        pick in 0usize..10,
    ) {
        let platform = pf();
        let apps: Vec<Application> = rows
            .iter()
            .enumerate()
            .map(|(i, &row)| build_app(i, row, &platform))
            .collect();
        let index = pick % apps.len();
        let mut session = Session::new();
        let id = session.create(apps.clone(), platform.clone()).unwrap();
        session.handle(id).unwrap().remove_app(index).unwrap();

        let mut survivors = apps;
        survivors.remove(index);
        let rebuilt = Instance::new(survivors, platform).unwrap();
        assert_eval_bits_equal(
            session.instance(id).unwrap().eval(),
            rebuilt.eval(),
            "interior removal",
        );
    }
}
