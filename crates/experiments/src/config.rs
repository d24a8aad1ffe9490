//! Experiment configuration.

/// Configuration shared by all experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpConfig {
    /// Repetitions per sweep point (the paper uses 50).
    pub reps: u64,
    /// Worker threads for the repetition fan-out.
    pub threads: usize,
    /// Root seed; every (repetition, point) derives a child seed from it.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            reps: 50,
            threads: coschedule::parallel::default_threads(),
            seed: 0xC0FF_EE00,
        }
    }
}

impl ExpConfig {
    /// A light configuration for unit tests (2 repetitions, 1 thread).
    pub fn smoke() -> Self {
        Self {
            reps: 2,
            threads: 1,
            seed: 7,
        }
    }

    /// Returns a copy with a different repetition count.
    #[must_use]
    pub fn with_reps(mut self, reps: u64) -> Self {
        self.reps = reps.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_reps() {
        assert_eq!(ExpConfig::default().reps, 50);
    }

    #[test]
    fn smoke_is_cheap() {
        let c = ExpConfig::smoke();
        assert!(c.reps <= 2);
        assert_eq!(c.threads, 1);
    }

    #[test]
    fn with_reps_clamps_to_one() {
        assert_eq!(ExpConfig::default().with_reps(0).reps, 1);
        assert_eq!(ExpConfig::default().with_reps(9).reps, 9);
    }
}
