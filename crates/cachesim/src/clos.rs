//! Class-of-service (CLOS) management, modelled on Intel Cache Allocation
//! Technology's programming rules.
//!
//! Real CAT hardware constrains capacity bitmasks: each CLOS mask must be
//! **contiguous**, **non-empty**, and there is a bounded number of CLOS
//! ids. Converting the scheduler's rational fractions `x_i` into masks is
//! therefore a rounding problem; this module implements it with a
//! largest-remainder apportionment so the way counts sum to at most the
//! associativity while staying as close as possible to the requested
//! fractions.

use crate::partition::WayMask;

/// Errors raised by the CLOS manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClosError {
    /// More classes requested than the hardware exposes.
    TooManyClasses {
        /// Requested class count.
        requested: usize,
        /// Hardware maximum.
        max: usize,
    },
    /// A mask violates CAT's contiguity rule.
    NonContiguous(u64),
    /// A mask is empty but the configuration requires every class to own
    /// at least `min_ways` ways.
    TooFewWays {
        /// Offending class.
        clos: usize,
        /// Configured minimum.
        min_ways: u32,
    },
    /// Masks overlap but exclusive mode was requested.
    Overlap {
        /// First class of the offending pair.
        a: usize,
        /// Second class of the offending pair.
        b: usize,
    },
}

impl std::fmt::Display for ClosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooManyClasses { requested, max } => {
                write!(f, "{requested} classes requested, hardware supports {max}")
            }
            Self::NonContiguous(mask) => write!(f, "mask {mask:#b} is not contiguous"),
            Self::TooFewWays { clos, min_ways } => {
                write!(f, "class {clos} owns fewer than {min_ways} way(s)")
            }
            Self::Overlap { a, b } => write!(f, "classes {a} and {b} overlap"),
        }
    }
}

impl std::error::Error for ClosError {}

/// Hardware-style constraints of the CLOS table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosConfig {
    /// Cache associativity (mask width).
    pub ways: usize,
    /// Maximum number of classes (Intel parts expose 4–16).
    pub max_clos: usize,
    /// Minimum ways per non-empty class (CAT requires ≥ 1; some parts 2).
    pub min_ways: u32,
}

/// A validated CLOS table: one contiguous, pairwise-disjoint mask per
/// class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosTable {
    config: ClosConfig,
    masks: Vec<WayMask>,
}

impl ClosTable {
    /// Validates and stores explicit masks. Zero masks are allowed only
    /// when the requested fraction was zero (the scheduler's `x_i = 0`).
    pub fn new(config: ClosConfig, masks: Vec<WayMask>) -> Result<Self, ClosError> {
        if masks.len() > config.max_clos {
            return Err(ClosError::TooManyClasses {
                requested: masks.len(),
                max: config.max_clos,
            });
        }
        for (i, m) in masks.iter().enumerate() {
            if m.0 != 0 && !is_contiguous(m.0) {
                return Err(ClosError::NonContiguous(m.0));
            }
            if m.0 != 0 && m.ways() < config.min_ways {
                return Err(ClosError::TooFewWays {
                    clos: i,
                    min_ways: config.min_ways,
                });
            }
        }
        for a in 0..masks.len() {
            for b in a + 1..masks.len() {
                if masks[a].overlaps(masks[b]) {
                    return Err(ClosError::Overlap { a, b });
                }
            }
        }
        Ok(Self { config, masks })
    }

    /// Apportions the associativity to `fractions` by largest remainder
    /// (Hamilton's method): way counts are `floor(x_i · W)` plus one extra
    /// way for the largest fractional remainders until `Σ ways_i =
    /// min(round(Σx_i·W), W)`. Zero fractions get empty masks (the
    /// scheduler's "no cache" assignment bypasses the LLC).
    pub fn from_fractions(config: ClosConfig, fractions: &[f64]) -> Result<Self, ClosError> {
        if fractions.len() > config.max_clos {
            return Err(ClosError::TooManyClasses {
                requested: fractions.len(),
                max: config.max_clos,
            });
        }
        let w = config.ways as f64;
        let exact: Vec<f64> = fractions.iter().map(|&x| (x.max(0.0)) * w).collect();
        let mut counts: Vec<u32> = exact.iter().map(|&e| e.floor() as u32).collect();
        let target: u32 = (exact.iter().sum::<f64>().round() as u32).min(config.ways as u32);
        // Distribute leftovers by largest remainder.
        let mut order: Vec<usize> = (0..fractions.len()).collect();
        order.sort_by(|&a, &b| {
            let ra = exact[a] - exact[a].floor();
            let rb = exact[b] - exact[b].floor();
            rb.partial_cmp(&ra).unwrap_or(std::cmp::Ordering::Equal)
        });
        let assigned: u32 = counts.iter().sum();
        let leftovers = target.saturating_sub(assigned) as usize;
        for &i in order.iter().take(leftovers) {
            counts[i] += 1;
        }
        // Enforce min_ways for non-zero requests.
        for (i, &f) in fractions.iter().enumerate() {
            if f > 0.0 && counts[i] > 0 && counts[i] < config.min_ways {
                counts[i] = config.min_ways;
            }
        }
        // Lay the classes out contiguously.
        let mut masks = Vec::with_capacity(fractions.len());
        let mut next = 0usize;
        for &c in &counts {
            let c = (c as usize).min(config.ways.saturating_sub(next));
            masks.push(WayMask::contiguous(next, c));
            next += c;
        }
        Self::new(config, masks)
    }

    /// The per-class masks.
    pub fn masks(&self) -> &[WayMask] {
        &self.masks
    }

    /// The effective fraction class `i` received (`ways_i / W`).
    pub fn effective_fraction(&self, i: usize) -> f64 {
        f64::from(self.masks[i].ways()) / self.config.ways as f64
    }

    /// Renders the table as `pqos`-style allocation commands
    /// (`llc:<clos>=<hex mask>`), the format Intel's CAT userspace tool
    /// consumes — i.e. what deploying a computed schedule on real hardware
    /// would look like. Classes with empty masks are omitted (no
    /// allocation; their partition bypasses the LLC in our model).
    pub fn to_pqos_commands(&self) -> Vec<String> {
        self.masks
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(i, m)| format!("llc:{i}=0x{:x}", m.0))
            .collect()
    }
}

fn is_contiguous(mask: u64) -> bool {
    let shifted = mask >> mask.trailing_zeros();
    (shifted & shifted.wrapping_add(1)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A 16-CLOS, 1-way-minimum, 16-way table (typical of Xeon server
    /// parts).
    fn cfg() -> ClosConfig {
        ClosConfig {
            ways: 16,
            max_clos: 16,
            min_ways: 1,
        }
    }

    /// Total ways allocated across classes.
    fn allocated_ways(t: &ClosTable) -> u32 {
        t.masks().iter().map(|m| m.ways()).sum()
    }

    #[test]
    fn contiguity_detection() {
        assert!(is_contiguous(0b0011_1000));
        assert!(is_contiguous(0b1));
        assert!(is_contiguous(u64::MAX));
        assert!(!is_contiguous(0b0101));
        assert!(!is_contiguous(0b1001_1000));
    }

    #[test]
    fn explicit_masks_are_validated() {
        let ok = ClosTable::new(
            cfg(),
            vec![WayMask::contiguous(0, 8), WayMask::contiguous(8, 8)],
        );
        assert!(ok.is_ok());
        let bad = ClosTable::new(cfg(), vec![WayMask(0b0101)]);
        assert_eq!(bad.unwrap_err(), ClosError::NonContiguous(0b0101));
        let overlap = ClosTable::new(
            cfg(),
            vec![WayMask::contiguous(0, 9), WayMask::contiguous(8, 8)],
        );
        assert!(matches!(overlap.unwrap_err(), ClosError::Overlap { .. }));
    }

    #[test]
    fn too_many_classes_rejected() {
        let masks = vec![WayMask::contiguous(0, 1); 17];
        assert!(matches!(
            ClosTable::new(cfg(), masks).unwrap_err(),
            ClosError::TooManyClasses { .. }
        ));
    }

    #[test]
    fn apportionment_matches_exact_fractions() {
        let t = ClosTable::from_fractions(cfg(), &[0.5, 0.25, 0.25]).unwrap();
        assert_eq!(t.masks()[0].ways(), 8);
        assert_eq!(t.masks()[1].ways(), 4);
        assert_eq!(t.masks()[2].ways(), 4);
        assert_eq!(allocated_ways(&t), 16);
    }

    #[test]
    fn largest_remainder_beats_naive_rounding() {
        // Naive round() of [0.09; 6] gives 6×1 = 6 ways from 0.54·16 ≈ 8.6;
        // largest remainder hits the target count.
        let fr = vec![0.09; 6];
        let t = ClosTable::from_fractions(cfg(), &fr).unwrap();
        let total = allocated_ways(&t);
        let target = (0.54f64 * 16.0).round() as u32;
        assert_eq!(total, target, "{t:?}");
    }

    #[test]
    fn zero_fraction_gets_empty_mask() {
        let t = ClosTable::from_fractions(cfg(), &[1.0, 0.0]).unwrap();
        assert!(t.masks()[1].is_empty());
        assert_eq!(t.effective_fraction(1), 0.0);
        assert_eq!(t.effective_fraction(0), 1.0);
    }

    #[test]
    fn effective_fractions_close_to_requested() {
        let fr = [0.4, 0.35, 0.25];
        let t = ClosTable::from_fractions(cfg(), &fr).unwrap();
        for (i, &f) in fr.iter().enumerate() {
            assert!(
                (t.effective_fraction(i) - f).abs() <= 1.0 / 16.0 + 1e-12,
                "class {i}: {} vs {f}",
                t.effective_fraction(i)
            );
        }
    }

    #[test]
    fn pqos_commands_match_masks() {
        let t = ClosTable::from_fractions(cfg(), &[0.5, 0.0, 0.25]).unwrap();
        let cmds = t.to_pqos_commands();
        assert_eq!(
            cmds,
            vec!["llc:0=0xff".to_string(), "llc:2=0xf00".to_string()]
        );
    }

    /// Scales raw draws so they sum to at most 1 (valid scheduler output).
    fn normalized(raw: &[f64], budget: f64) -> Vec<f64> {
        let total: f64 = raw.iter().sum();
        if total <= 0.0 {
            return vec![0.0; raw.len()];
        }
        raw.iter().map(|v| v / total * budget).collect()
    }

    proptest! {
        #[test]
        fn apportionment_never_overallocates(
            raw in prop::collection::vec(0.0f64..1.0, 1..12),
            budget in 0.1f64..1.0,
        ) {
            let fractions = normalized(&raw, budget);
            let t = ClosTable::from_fractions(cfg(), &fractions).unwrap();
            prop_assert!(allocated_ways(&t) <= 16);
        }

        #[test]
        fn masks_are_always_valid_cat_masks(
            raw in prop::collection::vec(0.0f64..1.0, 1..8),
            budget in 0.1f64..1.0,
        ) {
            let fractions = normalized(&raw, budget);
            let t = ClosTable::from_fractions(cfg(), &fractions).unwrap();
            for m in t.masks() {
                prop_assert!(m.0 == 0 || is_contiguous(m.0));
            }
            // Pairwise disjoint.
            for a in 0..t.masks().len() {
                for b in a + 1..t.masks().len() {
                    prop_assert!(!t.masks()[a].overlaps(t.masks()[b]));
                }
            }
        }
    }
}
