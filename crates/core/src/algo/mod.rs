//! Co-scheduling heuristics and baselines (paper §5 and §6.3).
//!
//! The six dominant-partition heuristics combine a build order
//! ([`BuildOrder::Forward`] = Algorithm 1, [`BuildOrder::Reverse`] =
//! Algorithm 2) with a greedy [`Choice`] function (Random / MinRatio /
//! MaxRatio). The four baselines of §6.3 (AllProcCache, Fair, 0cache,
//! RandomPart) are exposed through the same [`Strategy`] façade so
//! experiments can sweep them uniformly.
//!
//! [`exact`] provides reference solvers by subset enumeration for small
//! instances (exact for perfectly parallel applications, by the dominance
//! theory of §4); [`bnb`] scales the same optima to large `n` by
//! branch-and-bound with Theorem-3 lower bounds.

pub(crate) mod baselines;
pub mod bnb;
mod choice;
mod dominant;
pub mod exact;
mod outcome;
pub mod refine;
mod strategy;

pub use bnb::{branch_and_bound, BnbConfig, BnbSolution, BnbSolver, BnbStats};
pub use choice::Choice;
pub use dominant::{dominant_partition, BuildOrder};
pub use outcome::Outcome;
pub use refine::{refine, Refined};
pub use strategy::Strategy;
