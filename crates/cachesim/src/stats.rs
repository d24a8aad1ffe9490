//! Access statistics shared by all cache levels.

/// Hit/miss counters for one cache (or one partition of a cache).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Total accesses observed.
    pub accesses: u64,
    /// Accesses served by this cache.
    pub hits: u64,
    /// Accesses that had to go down the hierarchy.
    pub misses: u64,
}

impl AccessStats {
    /// Records a hit.
    pub fn record_hit(&mut self) {
        self.accesses += 1;
        self.hits += 1;
    }

    /// Records a miss.
    pub fn record_miss(&mut self) {
        self.accesses += 1;
        self.misses += 1;
    }

    /// Miss rate in `[0, 1]`; zero accesses count as rate 0.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &AccessStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = AccessStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = AccessStats::default();
        s.record_hit();
        s.record_hit();
        s.record_miss();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert!((s.miss_rate() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn empty_rates_are_zero() {
        let s = AccessStats::default();
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn merge_and_reset() {
        let mut a = AccessStats::default();
        a.record_hit();
        let mut b = AccessStats::default();
        b.record_miss();
        b.record_miss();
        a.merge(&b);
        assert_eq!(a.accesses, 3);
        assert_eq!(a.misses, 2);
        a.reset();
        assert_eq!(a, AccessStats::default());
    }

    #[test]
    fn rates_sum_to_one_when_nonempty() {
        let mut s = AccessStats::default();
        for i in 0..100 {
            if i % 3 == 0 {
                s.record_miss();
            } else {
                s.record_hit();
            }
        }
        assert!((s.miss_rate() + s.hits as f64 / s.accesses as f64 - 1.0).abs() < 1e-15);
    }
}
