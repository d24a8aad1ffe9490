//! Theoretical characterisation of optimal solutions (paper §4).
//!
//! For perfectly parallel applications the paper shows:
//!
//! * all applications finish simultaneously in an optimal solution
//!   (Lemma 1);
//! * given the cache split, the optimal processor split is proportional to
//!   sequential costs (Lemma 2, [`proc_alloc`]);
//! * the problem therefore reduces to choosing the cache split minimising
//!   `(1/p) Σ_i Exe_i(1, x_i)` (Lemma 3, [`objective`]);
//! * for a fixed subset `IC` of applications sharing the cache, the optimal
//!   split is in closed form (Lemma 4/Theorem 3, [`cache_alloc`]);
//! * the optimum is attained on a **dominant** partition (Definition 4 and
//!   Theorem 2, [`dominance`]).

pub mod cache_alloc;
pub mod dominance;
pub mod lemma1;
pub mod objective;
pub mod proc_alloc;

pub use cache_alloc::optimal_cache_fractions_into;
pub use dominance::{is_dominant, partition_strength, violators, Partition};
pub use lemma1::{equalize, exchange_step};
pub use objective::partition_objective;
pub use proc_alloc::{equal_finish_split, lemma2_proc_split, EqualFinish};
