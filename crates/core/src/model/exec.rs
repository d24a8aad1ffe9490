//! Execution-time model (paper Eq. 2).

use crate::model::powerlaw::{effective_fraction, miss_rate};
use crate::model::{Application, Platform};

/// `Fl_i(p)` — operations executed by **each** processor when `T_i` runs on
/// `p` processors, per Amdahl's law: `Fl(p) = s·w + (1-s)·w/p`.
fn flops_per_processor(app: &Application, procs: f64) -> f64 {
    app.seq_fraction * app.work + (1.0 - app.seq_fraction) * app.work / procs
}

/// `Exe_i(p_i, x_i)` — execution time of `app` on `procs` processors with a
/// fraction `cache` of the LLC (Eq. 2).
///
/// Per operation we pay `1` for the computation plus `f` accesses, each
/// costing `ls` plus `ll` on a miss; the miss rate follows the power law on
/// the fraction of cache that is actually useful (capped by the footprint).
/// A non-positive processor share yields `+∞` (the application never runs).
pub fn exec_time(app: &Application, platform: &Platform, procs: f64, cache: f64) -> f64 {
    if procs <= 0.0 {
        return f64::INFINITY;
    }
    flops_per_processor(app, procs) * per_op_cost(app, platform, cache)
}

/// `Exe_i^seq(x_i) = Exe_i(1, x_i)` — sequential execution time with a
/// fraction `cache` of the LLC.
pub fn seq_cost(app: &Application, platform: &Platform, cache: f64) -> f64 {
    app.work * per_op_cost(app, platform, cache)
}

/// `Exe_i^seq(0) = w (1 + f(ls + ll))` — sequential cost when every access
/// misses (no cache granted), used by the 0cache baseline and by
/// CoSchedCache-Part for applications outside `IC`.
pub fn seq_cost_full_miss(app: &Application, platform: &Platform) -> f64 {
    app.work * (1.0 + app.access_freq * (platform.latency_cache + platform.latency_mem))
}

/// Cost of one computing operation, including its `f` data accesses.
fn per_op_cost(app: &Application, platform: &Platform, cache: f64) -> f64 {
    let d = platform.full_cache_miss_rate(app);
    let x_eff = effective_fraction(cache, app.footprint, platform.cache_size);
    let m = miss_rate(d, x_eff, platform.alpha);
    1.0 + app.access_freq * (platform.latency_cache + platform.latency_mem * m)
}

/// The platform-dependent quantities the theory manipulates for one
/// application: `d_i`, the Theorem-3 weight `(w f d)^{1/(α+1)}`, the
/// useful-cache threshold `d^{1/α}` and the Definition-4 ratio.
///
/// This is the one place they are computed; [`EvalSet`](crate::eval::EvalSet)
/// stores them as columns, once per instance, so the heuristics stay
/// `O(n log n)` instead of recomputing `powf` in every comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecModel {
    /// `d_i = m0 (C0/Cs)^α` — miss rate with the whole LLC.
    pub d: f64,
    /// `(w_i f_i d_i)^{1/(α+1)}` — the numerator weight of Lemma 4 /
    /// Theorem 3.
    pub weight: f64,
    /// `d_i^{1/α}` — the useful-cache threshold of Eq. 3.
    pub threshold: f64,
    /// `ratio_i = weight_i / threshold_i` — the quantity compared against
    /// the partition strength in Definition 4 (dominance).
    pub ratio: f64,
}

impl ExecModel {
    /// Computes the derived quantities for one application.
    pub fn of(app: &Application, platform: &Platform) -> Self {
        let d = platform.full_cache_miss_rate(app);
        let weight = (app.work * app.access_freq * d).powf(1.0 / (platform.alpha + 1.0));
        let threshold = d.powf(1.0 / platform.alpha);
        let ratio = if threshold > 0.0 {
            weight / threshold
        } else {
            // d = 0: the application never misses, any positive fraction is
            // "useful"; it never constrains dominance.
            f64::INFINITY
        };
        Self {
            d,
            weight,
            threshold,
            ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> Application {
        Application::new("SP", 1.38e11, 0.0, 0.762, 1.51e-2)
    }

    fn pf() -> Platform {
        Platform::taihulight()
    }

    #[test]
    fn exec_time_matches_closed_form() {
        let (a, p) = (app(), pf());
        let d = p.full_cache_miss_rate(&a);
        let x: f64 = 0.25;
        let m = (d / x.sqrt()).min(1.0);
        let expected = a.work / 16.0 * (1.0 + a.access_freq * (0.17 + m));
        assert!((exec_time(&a, &p, 16.0, x) - expected).abs() / expected < 1e-14);
    }

    #[test]
    fn perfectly_parallel_scales_inversely_with_procs() {
        let (a, p) = (app(), pf());
        let t1 = exec_time(&a, &p, 1.0, 0.5);
        let t4 = exec_time(&a, &p, 4.0, 0.5);
        assert!((t1 / t4 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn amdahl_limits_speedup() {
        let (mut a, p) = (app(), pf());
        a.seq_fraction = 0.1;
        let t1 = exec_time(&a, &p, 1.0, 0.5);
        let tinf = exec_time(&a, &p, 1e12, 0.5);
        // Speedup bounded by 1/s = 10.
        assert!(t1 / tinf < 10.0 + 1e-6);
        assert!(t1 / tinf > 9.9);
    }

    #[test]
    fn zero_procs_never_finishes() {
        assert!(exec_time(&app(), &pf(), 0.0, 0.5).is_infinite());
    }

    #[test]
    fn seq_cost_equals_exec_on_one_proc() {
        let (a, p) = (app(), pf());
        assert_eq!(seq_cost(&a, &p, 0.3), exec_time(&a, &p, 1.0, 0.3));
    }

    #[test]
    fn seq_cost_full_miss_equals_zero_cache() {
        let (a, p) = (app(), pf());
        assert!((seq_cost_full_miss(&a, &p) - seq_cost(&a, &p, 0.0)).abs() < 1e-6);
    }

    #[test]
    fn more_cache_never_hurts() {
        let (a, p) = (app(), pf());
        let mut prev = seq_cost(&a, &p, 0.0);
        for i in 1..=50 {
            let x = f64::from(i) / 50.0;
            let c = seq_cost(&a, &p, x);
            assert!(c <= prev * (1.0 + 1e-15));
            prev = c;
        }
    }

    #[test]
    fn footprint_caps_cache_benefit() {
        let (mut a, p) = (app(), pf());
        a.footprint = p.cache_size * 0.1;
        // Any fraction above 10% of the LLC behaves like exactly 10%.
        let c10 = seq_cost(&a, &p, 0.1);
        let c50 = seq_cost(&a, &p, 0.5);
        assert_eq!(c10, c50);
        // But below the footprint, more cache still helps.
        assert!(seq_cost(&a, &p, 0.05) > c10);
    }

    #[test]
    fn exec_model_derived_quantities() {
        let (a, p) = (app(), pf());
        let em = ExecModel::of(&a, &p);
        let d = p.full_cache_miss_rate(&a);
        assert!((em.d - d).abs() < 1e-18);
        assert!((em.weight - (a.work * a.access_freq * d).powf(1.0 / 1.5)).abs() < 1e-9);
        assert!((em.threshold - d * d).abs() < 1e-18); // alpha = 0.5
        assert!((em.ratio - em.weight / em.threshold).abs() < 1e-6);
    }

    #[test]
    fn exec_model_zero_miss_rate_never_constrains() {
        let (mut a, p) = (app(), pf());
        a.miss_rate_ref = 0.0;
        let em = ExecModel::of(&a, &p);
        assert_eq!(em.d, 0.0);
        assert!(em.ratio.is_infinite());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_app() -> impl Strategy<Value = Application> {
            (1e8f64..1e12, 0.0f64..0.5, 0.0f64..1.0, 1e-5f64..1.0)
                .prop_map(|(w, s, f, m)| Application::new("P", w, s, f, m))
        }

        proptest! {
            /// Exe is non-increasing in processors and cache, and
            /// increasing in work.
            #[test]
            fn exec_time_monotonicities(
                app in arb_app(),
                p1 in 1.0f64..128.0,
                dp in 0.1f64..64.0,
                x1 in 0.0f64..0.9,
                dx in 0.01f64..0.1,
            ) {
                let pf = Platform::taihulight().with_cache_size(500e6);
                let base = exec_time(&app, &pf, p1, x1);
                prop_assert!(exec_time(&app, &pf, p1 + dp, x1) <= base * (1.0 + 1e-12));
                prop_assert!(exec_time(&app, &pf, p1, x1 + dx) <= base * (1.0 + 1e-12));
                let mut bigger = app.clone();
                bigger.work *= 2.0;
                prop_assert!(exec_time(&bigger, &pf, p1, x1) >= base);
            }

            /// Exe(p, x) == Exe_seq(x) / p exactly when s = 0.
            #[test]
            fn perfectly_parallel_scaling(
                w in 1e8f64..1e12,
                f in 0.0f64..1.0,
                m in 1e-5f64..1.0,
                p in 1.0f64..256.0,
                x in 0.0f64..1.0,
            ) {
                let app = Application::perfectly_parallel("P", w, f, m);
                let pf = Platform::taihulight();
                let lhs = exec_time(&app, &pf, p, x);
                let rhs = seq_cost(&app, &pf, x) / p;
                prop_assert!((lhs - rhs).abs() <= 1e-12 * rhs.max(1.0));
            }

            /// The derived threshold is exactly where the power-law clamp
            /// releases.
            #[test]
            fn threshold_marks_clamp_release(app in arb_app()) {
                let pf = Platform::taihulight().with_cache_size(100e6);
                let em = ExecModel::of(&app, &pf);
                prop_assume!(em.threshold > 0.0 && em.threshold < 0.5);
                let just_below = seq_cost(&app, &pf, em.threshold * 0.999);
                let full_miss = seq_cost(&app, &pf, 0.0);
                prop_assert!((just_below - full_miss).abs() < 1e-6 * full_miss);
                let above = seq_cost(&app, &pf, em.threshold * 1.01);
                prop_assert!(above <= full_miss);
            }
        }
    }
}
