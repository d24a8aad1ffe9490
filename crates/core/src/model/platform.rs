//! Platform descriptor (paper §3, "Architecture" and §6.1 settings).

use crate::error::{CoschedError, Result};
use crate::model::Application;

/// A parallel platform: `p` homogeneous processors sharing an LLC of size
/// `Cs`, backed by an infinite memory.
///
/// Latencies are in abstract time units per access; the paper's simulations
/// use `ll = 1`, `ls = 0.17` (an LLC/DRAM latency ratio of 5.88).
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// `p` — number of processors. Rational: processors can be shared
    /// across applications through multi-threading.
    pub processors: f64,
    /// `Cs` — shared LLC size in bytes.
    pub cache_size: f64,
    /// `C0` — reference cache size (bytes) at which application miss rates
    /// `m0` were measured. Table 2 of the paper uses 40 MB.
    pub ref_cache_size: f64,
    /// `ls` — latency of a cache (LLC) access.
    pub latency_cache: f64,
    /// `ll` — additional latency of a memory access on a cache miss.
    pub latency_mem: f64,
    /// `α` — sensitivity factor of the power law of cache misses.
    /// Typically in `[0.3, 0.7]`, average 0.5.
    pub alpha: f64,
}

impl Platform {
    /// Paper §6.1 main configuration: one Sunway TaihuLight manycore node
    /// with 256 processors whose 32 GB shared memory plays the role of the
    /// LLC; `ll = 1`, `ls = 0.17`, `α = 0.5`, reference cache 40 MB.
    pub fn taihulight() -> Self {
        Self {
            processors: 256.0,
            cache_size: 32_000e6,
            ref_cache_size: 40e6,
            latency_cache: 0.17,
            latency_mem: 1.0,
            alpha: 0.5,
        }
    }

    /// Paper §6.1 cache-miss-rate study: same node with a 1 GB LLC
    /// (used for Figures 2 and 18 where heuristics start to differ).
    pub fn taihulight_small_llc() -> Self {
        Self {
            cache_size: 1e9,
            ..Self::taihulight()
        }
    }

    /// Returns a copy with a different processor count.
    #[must_use]
    pub fn with_processors(mut self, p: f64) -> Self {
        self.processors = p;
        self
    }

    /// Returns a copy with a different LLC size (bytes).
    #[must_use]
    pub fn with_cache_size(mut self, cs: f64) -> Self {
        self.cache_size = cs;
        self
    }

    /// Returns a copy with a different cache latency `ls`.
    #[must_use]
    pub fn with_latency_cache(mut self, ls: f64) -> Self {
        self.latency_cache = ls;
        self
    }

    /// Returns a copy with a different power-law exponent `α`.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// `d_i = m0 · (C0 / Cs)^α` — the application's miss rate when granted
    /// the **whole** LLC (paper §3, "Computations and data movement").
    ///
    /// The power law then gives `m_i(x) = min(1, d_i / x^α)` for a fraction
    /// `x` of the LLC.
    pub fn full_cache_miss_rate(&self, app: &Application) -> f64 {
        app.miss_rate_ref * (self.ref_cache_size / self.cache_size).powf(self.alpha)
    }

    /// Checks the documented parameter domains.
    pub fn validate(&self) -> Result<()> {
        let fail = |reason: &str| Err(CoschedError::InvalidPlatform(reason.to_string()));
        if !(self.processors.is_finite() && self.processors > 0.0) {
            return fail("processor count p must be finite and > 0");
        }
        if !(self.cache_size.is_finite() && self.cache_size > 0.0) {
            return fail("cache size Cs must be finite and > 0");
        }
        if !(self.ref_cache_size.is_finite() && self.ref_cache_size > 0.0) {
            return fail("reference cache size C0 must be finite and > 0");
        }
        if !(self.latency_cache.is_finite() && self.latency_cache >= 0.0) {
            return fail("cache latency ls must be finite and >= 0");
        }
        if !(self.latency_mem.is_finite() && self.latency_mem >= 0.0) {
            return fail("memory latency ll must be finite and >= 0");
        }
        if !(self.alpha.is_finite() && self.alpha > 0.0 && self.alpha <= 1.0) {
            return fail("power-law exponent alpha must lie in (0, 1]");
        }
        Ok(())
    }
}

impl Default for Platform {
    /// Defaults to the paper's main simulation platform
    /// ([`Platform::taihulight`]).
    fn default() -> Self {
        Self::taihulight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taihulight_matches_paper_settings() {
        let p = Platform::taihulight();
        assert_eq!(p.processors, 256.0);
        assert_eq!(p.cache_size, 32_000e6);
        assert_eq!(p.latency_mem, 1.0);
        assert_eq!(p.latency_cache, 0.17);
        assert_eq!(p.alpha, 0.5);
        assert!(p.validate().is_ok());
        // ll/ls = 5.88 ratio claimed in the paper.
        assert!((p.latency_mem / p.latency_cache - 5.88).abs() < 0.01);
    }

    #[test]
    fn small_llc_variant_only_changes_cache() {
        let a = Platform::taihulight();
        let b = Platform::taihulight_small_llc();
        assert_eq!(b.cache_size, 1e9);
        assert_eq!(a.processors, b.processors);
        assert_eq!(a.alpha, b.alpha);
    }

    #[test]
    fn full_cache_miss_rate_scales_by_power_law() {
        // d = m0 * (C0/Cs)^alpha; with C0 = 40MB, Cs = 32GB, alpha = 0.5
        // the scale factor is sqrt(40e6/32e9) = sqrt(1.25e-3).
        let p = Platform::taihulight();
        let app = Application::new("SP", 1.38e11, 0.0, 0.762, 1.51e-2);
        let expected = 1.51e-2 * (40e6_f64 / 32_000e6).sqrt();
        assert!((p.full_cache_miss_rate(&app) - expected).abs() < 1e-15);
    }

    #[test]
    fn bigger_cache_means_lower_full_cache_miss_rate() {
        let app = Application::new("A", 1e10, 0.0, 0.5, 1e-2);
        let small = Platform::taihulight_small_llc().full_cache_miss_rate(&app);
        let large = Platform::taihulight().full_cache_miss_rate(&app);
        assert!(large < small);
    }

    #[test]
    fn builders_update_single_fields() {
        let p = Platform::taihulight()
            .with_processors(64.0)
            .with_cache_size(2e9)
            .with_latency_cache(0.5)
            .with_alpha(0.3);
        assert_eq!(p.processors, 64.0);
        assert_eq!(p.cache_size, 2e9);
        assert_eq!(p.latency_cache, 0.5);
        assert_eq!(p.alpha, 0.3);
    }

    #[test]
    fn validate_rejects_bad_values() {
        assert!(Platform::taihulight()
            .with_processors(0.0)
            .validate()
            .is_err());
        assert!(Platform::taihulight()
            .with_cache_size(-1.0)
            .validate()
            .is_err());
        assert!(Platform::taihulight().with_alpha(0.0).validate().is_err());
        assert!(Platform::taihulight().with_alpha(1.5).validate().is_err());
        assert!(Platform::taihulight()
            .with_latency_cache(f64::NAN)
            .validate()
            .is_err());
    }

    #[test]
    fn default_is_taihulight() {
        assert_eq!(Platform::default(), Platform::taihulight());
    }
}
