//! Miss-curve measurement and power-law fitting (paper Eq. 1, measured
//! rather than assumed).

use crate::cache::{CacheConfig, SetAssocCache};
use crate::policy::Policy;
use crate::trace::{Pattern, TraceGenerator, LINE_SIZE};

/// A measured miss-rate curve: `miss_rates[i]` is the steady-state miss
/// rate on a (fully-associative, LRU) cache of `sizes_bytes[i]` bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct MissCurve {
    /// Cache sizes in bytes, ascending.
    pub sizes_bytes: Vec<u64>,
    /// Measured miss rate for each size.
    pub miss_rates: Vec<f64>,
}

/// A power-law fit `m(C) = m0 (C0/C)^α` with its goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Reference cache size `C0` (bytes).
    pub c0_bytes: f64,
    /// Fitted miss rate at `C0`.
    pub m0: f64,
    /// Fitted sensitivity exponent `α`.
    pub alpha: f64,
    /// Coefficient of determination of the log-log regression.
    pub r_squared: f64,
}

/// Runs `pattern` against fully-associative LRU caches of each size in
/// `sizes_bytes` and returns the measured curve. Each run replays the same
/// seed, issues `warmup` unmeasured accesses and then `measured` measured
/// ones.
pub fn measure_miss_curve(
    pattern: &Pattern,
    seed: u64,
    sizes_bytes: &[u64],
    warmup: u64,
    measured: u64,
) -> MissCurve {
    let mut sizes: Vec<u64> = sizes_bytes.to_vec();
    sizes.sort_unstable();
    let miss_rates = sizes
        .iter()
        .map(|&size| {
            let mut cache =
                SetAssocCache::new(CacheConfig::fully_associative(size, LINE_SIZE, Policy::Lru));
            let mut generator = TraceGenerator::new(pattern.clone(), seed);
            for _ in 0..warmup {
                cache.access(generator.next_address());
            }
            cache.reset_stats();
            for _ in 0..measured {
                cache.access(generator.next_address());
            }
            cache.stats().miss_rate()
        })
        .collect();
    MissCurve {
        sizes_bytes: sizes,
        miss_rates,
    }
}

/// Fits Eq. 1 to a measured curve by least squares in log-log space,
/// anchored at reference size `c0_bytes`.
///
/// Saturated points (`m ≥ 1` or `m ≤ 0`) are excluded — exactly the `min`
/// clamp of Eq. 1. Returns `None` if fewer than two usable points remain.
pub fn fit_power_law(curve: &MissCurve, c0_bytes: f64) -> Option<PowerLawFit> {
    let points: Vec<(f64, f64)> = curve
        .sizes_bytes
        .iter()
        .zip(&curve.miss_rates)
        .filter(|&(_, &m)| m > 0.0 && m < 1.0)
        .map(|(&c, &m)| ((c as f64 / c0_bytes).ln(), m.ln()))
        .collect();
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    // ln m = intercept + slope * ln(C/C0); slope = -alpha.
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    // R^2.
    let mean_y = sy / n;
    let ss_tot: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
    let ss_res: f64 = points
        .iter()
        .map(|p| (p.1 - (intercept + slope * p.0)).powi(2))
        .sum();
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else {
        1.0
    };
    Some(PowerLawFit {
        c0_bytes,
        m0: intercept.exp(),
        alpha: -slope,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pareto_curve(theta: f64) -> MissCurve {
        let sizes: Vec<u64> = (4..=10).map(|k| (1u64 << k) * LINE_SIZE).collect();
        measure_miss_curve(&Pattern::pareto(theta, 1.0), 42, &sizes, 20_000, 40_000)
    }

    #[test]
    fn curve_is_monotone_decreasing() {
        let c = pareto_curve(0.5);
        for w in c.miss_rates.windows(2) {
            assert!(
                w[1] <= w[0] + 0.02,
                "curve not (approximately) monotone: {c:?}"
            );
        }
    }

    #[test]
    fn pareto_trace_recovers_its_exponent() {
        for theta in [0.4, 0.5, 0.7] {
            let curve = pareto_curve(theta);
            let fit = fit_power_law(&curve, (1u64 << 7) as f64 * LINE_SIZE as f64)
                .expect("fit should succeed");
            assert!(
                (fit.alpha - theta).abs() < 0.15,
                "theta {theta}: fitted alpha {}",
                fit.alpha
            );
            assert!(fit.r_squared > 0.95, "poor fit: r2 = {}", fit.r_squared);
        }
    }

    #[test]
    fn fitted_alpha_in_paper_range_for_typical_workload() {
        // The paper quotes alpha in [0.3, 0.7]; the theta = 0.5 generator
        // should land inside.
        let curve = pareto_curve(0.5);
        let fit = fit_power_law(&curve, 64.0 * 128.0).unwrap();
        assert!((0.3..=0.7).contains(&fit.alpha), "alpha = {}", fit.alpha);
    }

    #[test]
    fn fit_ignores_saturated_points() {
        let curve = MissCurve {
            sizes_bytes: vec![64, 128, 256, 512, 1024],
            miss_rates: vec![1.0, 0.5, 0.25, 0.125, 0.0625],
        };
        // Exact power law with alpha = 1 on the unsaturated part.
        let fit = fit_power_law(&curve, 128.0).unwrap();
        assert!((fit.alpha - 1.0).abs() < 1e-9);
        assert!((fit.m0 - 0.5).abs() < 1e-9);
        assert!(fit.r_squared > 0.999_999);
    }

    #[test]
    fn fit_fails_gracefully_on_degenerate_curves() {
        let all_sat = MissCurve {
            sizes_bytes: vec![64, 128],
            miss_rates: vec![1.0, 1.0],
        };
        assert!(fit_power_law(&all_sat, 64.0).is_none());
        let single = MissCurve {
            sizes_bytes: vec![64, 128],
            miss_rates: vec![1.0, 0.5],
        };
        assert!(fit_power_law(&single, 64.0).is_none());
    }

    #[test]
    fn streaming_pattern_has_no_reuse_at_small_sizes() {
        // A stream over a 2^14-line footprint misses everywhere below the
        // footprint.
        let sizes: Vec<u64> = vec![1 << 12, 1 << 14, 1 << 16];
        let curve = measure_miss_curve(
            &Pattern::Stream {
                footprint_lines: 1 << 14,
            },
            0,
            &sizes,
            1 << 15,
            1 << 15,
        );
        assert!(curve.miss_rates[0] > 0.99);
        // Once the footprint fits (sizes are bytes: 2^16 B = 2^10 lines...
        // still smaller than footprint), keep missing.
        assert!(curve.miss_rates[2] > 0.99);
    }

    #[test]
    fn streaming_fits_entirely_in_a_big_cache() {
        let footprint_lines = 1u64 << 8;
        let sizes = vec![footprint_lines * 2 * LINE_SIZE];
        let curve = measure_miss_curve(
            &Pattern::Stream { footprint_lines },
            0,
            &sizes,
            footprint_lines * 2,
            footprint_lines * 8,
        );
        assert!(curve.miss_rates[0] < 0.01, "{curve:?}");
    }
}
