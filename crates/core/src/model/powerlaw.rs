//! The power law of cache misses (paper Eq. 1 and Eq. 3).

/// Miss rate of an application holding a fraction `x ∈ [0, 1]` of the LLC,
/// given `d = m0 (C0/Cs)^α`, its miss rate with the **whole** LLC.
///
/// Implements Eq. 1 specialised to fractions: `m(x) = min(1, d / x^α)`.
/// A zero (or negative, clamped) fraction yields a miss rate of 1: with no
/// reserved cache every access goes to memory.
pub fn miss_rate(d: f64, x: f64, alpha: f64) -> f64 {
    if x <= 0.0 {
        return 1.0;
    }
    (d / x.powf(alpha)).min(1.0)
}

/// The fraction of the LLC the application can actually exploit: a share
/// beyond its memory footprint `a` buys nothing (Eq. 2, second case), so the
/// effective fraction is `min(x, a / Cs)`.
pub fn effective_fraction(x: f64, footprint: f64, cache_size: f64) -> f64 {
    if footprint.is_infinite() {
        return x;
    }
    x.min(footprint / cache_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_with_full_cache_is_d() {
        assert!((miss_rate(1e-3, 1.0, 0.5) - 1e-3).abs() < 1e-18);
    }

    #[test]
    fn miss_rate_clamps_to_one() {
        // x below the useful threshold => rate 1.
        assert_eq!(miss_rate(0.25, 0.01, 0.5), 1.0);
        assert_eq!(miss_rate(0.5, 0.0, 0.5), 1.0);
    }

    #[test]
    fn miss_rate_is_monotone_decreasing_in_x() {
        let d = 1e-2;
        let mut prev = miss_rate(d, 1e-4, 0.5);
        for i in 1..=100 {
            let x = f64::from(i) / 100.0;
            let m = miss_rate(d, x, 0.5);
            assert!(m <= prev + 1e-15, "not monotone at x={x}");
            prev = m;
        }
    }

    #[test]
    fn power_law_halves_miss_rate_for_4x_cache_at_alpha_half() {
        // m ∝ C^{-1/2}: quadrupling the cache halves the miss rate.
        let m1 = miss_rate(1e-2, 0.25, 0.5);
        let m4 = miss_rate(1e-2, 1.0, 0.5);
        assert!((m1 / m4 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn useful_threshold_is_where_min_saturates() {
        // Eq. 3: fractions at or below `d^{1/α}` are wasted.
        let (d, alpha) = (1e-2_f64, 0.5);
        let t = d.powf(1.0 / alpha);
        assert_eq!(miss_rate(d, t, alpha), 1.0);
        assert!(miss_rate(d, t * 1.01, alpha) < 1.0);
    }

    #[test]
    fn effective_fraction_caps_at_footprint() {
        assert_eq!(effective_fraction(0.5, 1e9, 32e9), 1e9 / 32e9);
        assert_eq!(effective_fraction(0.01, 1e9, 32e9), 0.01);
        assert_eq!(effective_fraction(0.5, f64::INFINITY, 32e9), 0.5);
    }
}
