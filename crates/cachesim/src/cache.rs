//! Set-associative cache core.

use crate::policy::{Policy, ReplacementState};
use crate::stats::AccessStats;

/// Geometry and policy of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be `line_size · ways · sets` for a
    /// power-of-two number of sets (the constructor rounds sets down to a
    /// power of two).
    pub size_bytes: u64,
    /// Cache-line size in bytes (power of two).
    pub line_size: u64,
    /// Associativity (1 = direct mapped; ≤ 64).
    pub ways: usize,
    /// Replacement policy.
    pub policy: Policy,
}

impl CacheConfig {
    /// A fully-associative configuration of the given capacity (capped at
    /// 64 ways: larger caches degrade to 64-way set-associative). Under a
    /// truly fully-associative geometry LRU obeys the stack-inclusion
    /// property; this is the geometry used for miss-curve measurement.
    pub fn fully_associative(size_bytes: u64, line_size: u64, policy: Policy) -> Self {
        let lines = (size_bytes / line_size).max(1) as usize;
        Self {
            size_bytes,
            line_size,
            ways: lines.min(64),
            policy,
        }
    }
}

/// Result of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (possibly evicting
    /// `evicted`).
    Miss {
        /// Address of the evicted line (line-aligned), if any.
        evicted: Option<u64>,
    },
    /// The line was absent and could **not** be filled because the way
    /// mask was empty (partition with zero ways): the access bypasses the
    /// cache.
    Bypass,
}

impl AccessOutcome {
    /// `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, Self::Hit)
    }
}

/// A set-associative cache with way-masked fills.
///
/// Lookups search **all** ways of the set (as on real CAT hardware, where a
/// partition may still hit on lines it cached before a mask change); fills
/// are restricted to the caller's way mask.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    sets: usize,
    set_shift: u32,
    set_mask: u64,
    /// Tag (full line address) per (set, way); `None` = invalid.
    tags: Vec<Option<u64>>,
    replacement: ReplacementState,
    stats: AccessStats,
}

impl SetAssocCache {
    /// Builds a cache. The number of sets is
    /// `size / (line_size · ways)` rounded **down** to a power of two
    /// (at least 1).
    ///
    /// # Panics
    /// Panics on zero sizes, non-power-of-two line size, or `ways` outside
    /// `1..=64`.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_seed(config, 0x5EED)
    }

    /// Like [`Self::new`] with an explicit seed for the Random policy.
    pub fn with_seed(config: CacheConfig, seed: u64) -> Self {
        assert!(config.line_size.is_power_of_two(), "line size must be 2^k");
        assert!(
            config.size_bytes >= config.line_size,
            "cache smaller than a line"
        );
        assert!((1..=64).contains(&config.ways), "ways must be in 1..=64");
        let raw_sets = (config.size_bytes / (config.line_size * config.ways as u64)).max(1);
        let sets =
            (raw_sets as usize).next_power_of_two() >> usize::from(!raw_sets.is_power_of_two());
        let sets = sets.max(1);
        Self {
            config,
            sets,
            set_shift: config.line_size.trailing_zeros(),
            set_mask: sets as u64 - 1,
            tags: vec![None; sets * config.ways],
            replacement: ReplacementState::new(config.policy, sets, config.ways, seed),
            stats: AccessStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of sets actually instantiated.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Aggregate statistics since construction (or the last reset).
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Clears statistics but keeps contents (for warm-up phases).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Full way mask for this associativity.
    pub fn full_mask(&self) -> u64 {
        if self.config.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.config.ways) - 1
        }
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.set_shift
    }

    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Accesses `addr` with the full way mask.
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.access_masked(addr, self.full_mask())
    }

    /// Accesses `addr`; on a miss, the fill victim is chosen within
    /// `mask`. An empty mask turns misses into bypasses.
    pub fn access_masked(&mut self, addr: u64, mask: u64) -> AccessOutcome {
        let mask = mask & self.full_mask();
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let base = set * self.config.ways;

        // Lookup across all ways.
        for way in 0..self.config.ways {
            if self.tags[base + way] == Some(line) {
                self.replacement.on_touch(set, way, false);
                self.stats.record_hit();
                return AccessOutcome::Hit;
            }
        }
        self.stats.record_miss();
        if mask == 0 {
            return AccessOutcome::Bypass;
        }
        // Prefer an invalid way inside the mask.
        let victim = (0..self.config.ways)
            .find(|w| mask >> w & 1 == 1 && self.tags[base + w].is_none())
            .unwrap_or_else(|| self.replacement.victim(set, mask));
        let evicted = self.tags[base + victim].map(|l| l << self.set_shift);
        self.tags[base + victim] = Some(line);
        self.replacement.on_touch(set, victim, true);
        AccessOutcome::Miss { evicted }
    }

    /// `true` iff the line containing `addr` is currently cached.
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let base = set * self.config.ways;
        (0..self.config.ways).any(|w| self.tags[base + w] == Some(line))
    }

    /// Invalidates all contents (statistics are kept).
    pub fn flush(&mut self) {
        self.tags.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Effective capacity in bytes (`sets · ways · line_size`), which may
    /// be below `config.size_bytes` after power-of-two rounding.
    fn effective_bytes(c: &SetAssocCache) -> u64 {
        c.sets as u64 * c.config.ways as u64 * c.config.line_size
    }

    /// Number of valid lines currently resident.
    fn occupancy(c: &SetAssocCache) -> usize {
        c.tags.iter().filter(|t| t.is_some()).count()
    }

    fn small(policy: Policy) -> SetAssocCache {
        SetAssocCache::new(CacheConfig {
            size_bytes: 4 * 64 * 4, // 4 sets, 4 ways
            line_size: 64,
            ways: 4,
            policy,
        })
    }

    #[test]
    fn geometry() {
        let c = small(Policy::Lru);
        assert_eq!(c.sets(), 4);
        assert_eq!(effective_bytes(&c), 1024);
        assert_eq!(c.full_mask(), 0b1111);
    }

    #[test]
    fn sets_round_down_to_power_of_two() {
        let c = SetAssocCache::new(CacheConfig {
            size_bytes: 3 * 64 * 2, // raw sets = 3 -> 2
            line_size: 64,
            ways: 2,
            policy: Policy::Lru,
        });
        assert_eq!(c.sets(), 2);
        assert!(effective_bytes(&c) <= 3 * 64 * 2);
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small(Policy::Lru);
        assert!(matches!(c.access(0x1000), AccessOutcome::Miss { .. }));
        assert!(c.access(0x1000).is_hit());
        // Same line, different byte.
        assert!(c.access(0x1004).is_hit());
        assert_eq!(c.stats().accesses, 3);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn capacity_eviction_with_lru() {
        let mut c = small(Policy::Lru);
        // Fill set 0 (addresses that map to set 0: line % 4 == 0).
        let addrs: Vec<u64> = (0..5).map(|i| i * 4 * 64).collect();
        for &a in &addrs[..4] {
            c.access(a);
        }
        assert!(c.contains(addrs[0]));
        // Fifth distinct line in the same set evicts the LRU (addrs[0]).
        let out = c.access(addrs[4]);
        match out {
            AccessOutcome::Miss { evicted: Some(e) } => assert_eq!(e, addrs[0]),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(!c.contains(addrs[0]));
        assert!(c.contains(addrs[4]));
    }

    #[test]
    fn lru_keeps_hot_line() {
        let mut c = small(Policy::Lru);
        let set0 = |i: u64| i * 4 * 64;
        for i in 0..4 {
            c.access(set0(i));
        }
        c.access(set0(0)); // refresh
        c.access(set0(9)); // evicts line 1, not 0
        assert!(c.contains(set0(0)));
        assert!(!c.contains(set0(1)));
    }

    #[test]
    fn masked_fill_restricts_victims() {
        let mut c = small(Policy::Lru);
        let set0 = |i: u64| i * 4 * 64;
        // Fill ways 0..4.
        for i in 0..4 {
            c.access(set0(i));
        }
        // New line may only replace ways 0 or 1.
        c.access_masked(set0(10), 0b0011);
        // Lines in ways 2, 3 (filled last) must still be present.
        assert!(c.contains(set0(2)));
        assert!(c.contains(set0(3)));
    }

    #[test]
    fn empty_mask_bypasses() {
        let mut c = small(Policy::Lru);
        assert_eq!(c.access_masked(0x40, 0), AccessOutcome::Bypass);
        assert!(!c.contains(0x40));
        assert_eq!(c.stats().misses, 1);
        // Still bypasses on repeat: nothing was filled.
        assert_eq!(c.access_masked(0x40, 0), AccessOutcome::Bypass);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small(Policy::Lru);
        c.access(0x40);
        assert_eq!(occupancy(&c), 1);
        c.flush();
        assert_eq!(occupancy(&c), 0);
        assert!(!c.contains(0x40));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = SetAssocCache::new(CacheConfig {
            size_bytes: 4 * 64,
            line_size: 64,
            ways: 1,
            policy: Policy::Lru,
        });
        // Two lines mapping to the same set ping-pong forever.
        for _ in 0..10 {
            assert!(!c.access(0).is_hit());
            assert!(!c.access(4 * 64).is_hit());
        }
    }

    #[test]
    fn all_policies_run_a_mixed_trace() {
        for policy in Policy::ALL {
            let mut c = small(policy);
            for i in 0..10_000u64 {
                c.access((i * 97) % 4096 * 64);
            }
            let s = c.stats();
            assert_eq!(s.accesses, 10_000, "{}", policy.name());
            assert_eq!(s.hits + s.misses, s.accesses);
        }
    }

    #[test]
    fn working_set_within_capacity_has_no_steady_state_misses() {
        // 16 lines fit exactly into the 16-line cache: after one pass, all
        // accesses hit under LRU.
        let mut c = small(Policy::Lru);
        let lines: Vec<u64> = (0..16).map(|i| i * 64).collect();
        for &a in &lines {
            c.access(a);
        }
        c.reset_stats();
        for _ in 0..10 {
            for &a in &lines {
                assert!(c.access(a).is_hit());
            }
        }
        assert_eq!(c.stats().misses, 0);
    }

    proptest! {
        #[test]
        fn hits_plus_misses_equals_accesses(
            addrs in prop::collection::vec(0u64..1 << 20, 1..500),
            policy_idx in 0usize..4,
        ) {
            let mut c = small(Policy::ALL[policy_idx]);
            for &a in &addrs {
                c.access(a);
            }
            let s = *c.stats();
            prop_assert_eq!(s.accesses, addrs.len() as u64);
            prop_assert_eq!(s.hits + s.misses, s.accesses);
        }

        #[test]
        fn occupancy_never_exceeds_capacity(
            addrs in prop::collection::vec(0u64..1 << 24, 1..1000),
        ) {
            let mut c = small(Policy::Lru);
            for &a in &addrs {
                c.access(a);
            }
            prop_assert!(occupancy(&c) <= 16);
        }

        #[test]
        fn contains_agrees_with_hit(
            addrs in prop::collection::vec(0u64..1 << 16, 2..300),
        ) {
            let mut c = small(Policy::Fifo);
            for w in addrs.windows(2) {
                c.access(w[0]);
                let predicted = c.contains(w[1]);
                prop_assert_eq!(c.access(w[1]).is_hit(), predicted);
            }
        }

        #[test]
        fn bigger_lru_cache_never_misses_more_fully_associative(
            addrs in prop::collection::vec(0u64..(1 << 14), 50..400),
        ) {
            // LRU stack-inclusion property (fully associative geometry).
            let mut small_c = SetAssocCache::new(CacheConfig::fully_associative(
                8 * 64, 64, Policy::Lru,
            ));
            let mut big_c = SetAssocCache::new(CacheConfig::fully_associative(
                32 * 64, 64, Policy::Lru,
            ));
            for &a in &addrs {
                small_c.access(a);
                big_c.access(a);
            }
            prop_assert!(big_c.stats().misses <= small_c.stats().misses);
        }
    }
}
