//! Way partitioning in the style of Intel Cache Allocation Technology.
//!
//! Each co-scheduled application is registered as a *partition* owning a
//! contiguous group of ways (a capacity bitmask). Fills are restricted to
//! the owned ways, so applications cannot evict each other's lines — the
//! isolation property the paper's model assumes. A special *shared* mode
//! gives every partition the full mask, modelling a conventional
//! unpartitioned LLC where co-runners interfere.

use crate::cache::{AccessOutcome, CacheConfig, SetAssocCache};
use crate::stats::AccessStats;

/// Identifier of a partition (dense, starting at 0).
pub type PartitionId = usize;

/// A capacity bitmask over cache ways (bit `w` set ⇒ way `w` usable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayMask(pub u64);

impl WayMask {
    /// Mask covering ways `[start, start + count)`.
    pub fn contiguous(start: usize, count: usize) -> Self {
        assert!(start + count <= 64, "mask beyond 64 ways");
        if count == 0 {
            return Self(0);
        }
        let ones = if count == 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        Self(ones << start)
    }

    /// Number of ways in the mask.
    pub fn ways(self) -> u32 {
        self.0.count_ones()
    }

    /// `true` iff no way is usable.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// `true` iff the two masks share a way.
    pub fn overlaps(self, other: WayMask) -> bool {
        self.0 & other.0 != 0
    }
}

/// A shared LLC accessed by multiple partitions.
#[derive(Debug, Clone)]
pub struct PartitionedCache {
    cache: SetAssocCache,
    masks: Vec<WayMask>,
    per_partition: Vec<AccessStats>,
    enforce: bool,
}

impl PartitionedCache {
    /// Builds a partitioned cache. `masks[i]` is partition `i`'s capacity
    /// bitmask. When `enforce` is `false` the masks are ignored and every
    /// partition fills anywhere (shared/contended mode).
    pub fn new(config: CacheConfig, masks: Vec<WayMask>, enforce: bool) -> Self {
        let cache = SetAssocCache::new(config);
        for (i, m) in masks.iter().enumerate() {
            assert!(
                m.0 & !cache.full_mask() == 0,
                "partition {i} mask uses ways beyond associativity"
            );
        }
        let n = masks.len();
        Self {
            cache,
            masks,
            per_partition: vec![AccessStats::default(); n],
            enforce,
        }
    }

    /// Splits the cache's ways proportionally to `fractions` (which should
    /// sum to ≤ 1) and builds an **enforced** partitioned cache. Each
    /// partition receives `round(fraction · ways)` contiguous ways, with
    /// leftovers unassigned (as CAT leaves unallocated ways to the OS).
    ///
    /// A fraction that rounds to zero ways yields an empty mask — that
    /// partition bypasses the cache entirely, matching the paper's
    /// `x_i = 0` semantics.
    pub fn from_fractions(config: CacheConfig, fractions: &[f64]) -> Self {
        let total_ways = config.ways;
        let mut masks = Vec::with_capacity(fractions.len());
        let mut next = 0usize;
        for &f in fractions {
            let count =
                ((f * total_ways as f64).round() as usize).min(total_ways - next.min(total_ways));
            let count = count.min(total_ways - next);
            masks.push(WayMask::contiguous(next, count));
            next += count;
        }
        Self::new(config, masks, true)
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.masks.len()
    }

    /// The mask of a partition.
    pub fn mask(&self, id: PartitionId) -> WayMask {
        self.masks[id]
    }

    /// Accesses `addr` on behalf of partition `id`.
    pub fn access(&mut self, id: PartitionId, addr: u64) -> AccessOutcome {
        let mask = if self.enforce {
            self.masks[id].0
        } else {
            self.cache.full_mask()
        };
        let out = self.cache.access_masked(addr, mask);
        if out.is_hit() {
            self.per_partition[id].record_hit();
        } else {
            self.per_partition[id].record_miss();
        }
        out
    }

    /// Statistics for one partition.
    pub fn partition_stats(&self, id: PartitionId) -> &AccessStats {
        &self.per_partition[id]
    }

    /// Aggregate statistics of the underlying cache.
    pub fn stats(&self) -> &AccessStats {
        self.cache.stats()
    }

    /// Clears per-partition and aggregate statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.cache.reset_stats();
        for s in &mut self.per_partition {
            s.reset();
        }
    }

    /// Read-only access to the underlying cache (for inspection in tests).
    pub fn inner(&self) -> &SetAssocCache {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;

    fn config() -> CacheConfig {
        CacheConfig {
            size_bytes: 8 * 64 * 16, // 8 sets, 16 ways
            line_size: 64,
            ways: 16,
            policy: Policy::Lru,
        }
    }

    #[test]
    fn way_mask_construction() {
        assert_eq!(WayMask::contiguous(0, 4).0, 0b1111);
        assert_eq!(WayMask::contiguous(4, 2).0, 0b11_0000);
        assert_eq!(WayMask::contiguous(0, 0).0, 0);
        assert_eq!(WayMask::contiguous(0, 64).0, u64::MAX);
        assert_eq!(WayMask::contiguous(2, 3).ways(), 3);
        assert!(WayMask::contiguous(0, 0).is_empty());
        assert!(WayMask::contiguous(0, 4).overlaps(WayMask::contiguous(3, 2)));
        assert!(!WayMask::contiguous(0, 4).overlaps(WayMask::contiguous(4, 2)));
    }

    #[test]
    #[should_panic(expected = "beyond 64 ways")]
    fn oversized_mask_panics() {
        let _ = WayMask::contiguous(60, 8);
    }

    #[test]
    fn from_fractions_splits_ways() {
        let pc = PartitionedCache::from_fractions(config(), &[0.5, 0.25, 0.25]);
        assert_eq!(pc.mask(0).ways(), 8);
        assert_eq!(pc.mask(1).ways(), 4);
        assert_eq!(pc.mask(2).ways(), 4);
        assert!(!pc.mask(0).overlaps(pc.mask(1)));
        assert!(!pc.mask(1).overlaps(pc.mask(2)));
        assert!(pc.enforce);
    }

    #[test]
    fn zero_fraction_gets_empty_mask_and_bypasses() {
        let mut pc = PartitionedCache::from_fractions(config(), &[1.0, 0.0]);
        assert!(pc.mask(1).is_empty());
        assert_eq!(pc.access(1, 0x40), AccessOutcome::Bypass);
        assert_eq!(pc.partition_stats(1).misses, 1);
    }

    #[test]
    fn partitions_cannot_evict_each_other() {
        // Partition 0 owns ways 0..8, partition 1 owns ways 8..16.
        let mut pc = PartitionedCache::from_fractions(config(), &[0.5, 0.5]);
        // Partition 0 fills 8 lines of set 0 (its full capacity there).
        let set0 = |i: u64| i * 8 * 64;
        for i in 0..8 {
            pc.access(0, set0(i));
        }
        // Partition 1 now streams 100 distinct lines through set 0.
        for i in 100..200 {
            pc.access(1, set0(i));
        }
        // Partition 0's lines survived.
        for i in 0..8 {
            assert!(pc.inner().contains(set0(i)), "line {i} was evicted");
        }
    }

    #[test]
    fn shared_mode_allows_interference() {
        let mut pc = PartitionedCache::new(
            config(),
            vec![WayMask::contiguous(0, 8), WayMask::contiguous(8, 8)],
            false, // not enforced
        );
        let set0 = |i: u64| i * 8 * 64;
        for i in 0..8 {
            pc.access(0, set0(i));
        }
        for i in 100..200 {
            pc.access(1, set0(i));
        }
        // Partition 0 lost (at least some of) its lines.
        let survivors = (0..8).filter(|&i| pc.inner().contains(set0(i))).count();
        assert!(survivors < 8, "sharing should have caused interference");
    }

    #[test]
    fn per_partition_stats_are_separate() {
        let mut pc = PartitionedCache::from_fractions(config(), &[0.5, 0.5]);
        pc.access(0, 0x40);
        pc.access(0, 0x40);
        pc.access(1, 0x80);
        assert_eq!(pc.partition_stats(0).accesses, 2);
        assert_eq!(pc.partition_stats(0).hits, 1);
        assert_eq!(pc.partition_stats(1).accesses, 1);
        let mut total = AccessStats::default();
        total.merge(pc.partition_stats(0));
        total.merge(pc.partition_stats(1));
        assert_eq!(total.accesses, pc.stats().accesses);
    }

    #[test]
    fn partition_hits_on_foreign_way_still_count() {
        // CAT semantics: lookups search all ways, so a partition can hit on
        // a line another partition cached.
        let mut pc = PartitionedCache::from_fractions(config(), &[0.5, 0.5]);
        pc.access(0, 0x40);
        assert!(pc.access(1, 0x40).is_hit());
    }

    #[test]
    fn fractions_never_overallocate() {
        let pc = PartitionedCache::from_fractions(config(), &[0.7, 0.7]);
        let total: u32 = (0..2).map(|i| pc.mask(i).ways()).sum();
        assert!(total <= 16);
    }

    #[test]
    fn reset_stats_clears_everything() {
        let mut pc = PartitionedCache::from_fractions(config(), &[1.0]);
        pc.access(0, 0x40);
        pc.reset_stats();
        assert_eq!(pc.stats().accesses, 0);
        assert_eq!(pc.partition_stats(0).accesses, 0);
    }
}
