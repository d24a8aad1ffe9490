//! Co-scheduling algorithms for cache-partitioned systems.
//!
//! This crate is a faithful implementation of the model, theory and
//! algorithms of *"Co-scheduling algorithms for cache-partitioned systems"*
//! (Aupy, Benoit, Pottier, Raghavan, Robert, Shantharam — IPDPS 2017,
//! INRIA research report RR-8965).
//!
//! # Problem
//!
//! `n` parallel applications run **concurrently** on a multicore with `p`
//! identical processors sharing a last-level cache (LLC) of size `Cs`.
//! Processors may be fractionally shared (multi-threading) and the LLC can be
//! partitioned (Intel CAT-style): application `i` receives `p_i` processors
//! and an exclusive cache fraction `x_i`, with `Σ p_i ≤ p` and `Σ x_i ≤ 1`.
//! The goal is to minimise the makespan `max_i Exe_i(p_i, x_i)`.
//!
//! The execution model combines Amdahl's law with the *power law of cache
//! misses* (see [`model`]). The decision problem is NP-complete (the
//! executable reduction from Knapsack lives in [`npc`]); for perfectly
//! parallel applications optimal solutions are characterised by **dominant
//! partitions** (see [`theory`]), which drive the practical heuristics of
//! [`algo`].
//!
//! # Quick start
//!
//! Build a validated [`solver::Instance`] once, then hand it to any
//! [`solver::Solver`] from the registry — or to all of them at once via
//! [`solver::Portfolio`]:
//!
//! ```
//! use coschedule::model::{Application, Platform};
//! use coschedule::solver::{self, Instance, Portfolio, SolveCtx};
//!
//! let instance = Instance::new(
//!     vec![
//!         Application::new("CG", 5.70e10, 0.05, 0.535, 6.59e-4),
//!         Application::new("BT", 2.10e11, 0.05, 0.829, 7.31e-3),
//!         Application::new("LU", 1.52e11, 0.05, 0.750, 1.51e-3),
//!     ],
//!     Platform::taihulight(),
//! )
//! .unwrap();
//!
//! // The paper's flagship heuristic, by its figure-legend name.
//! let dmr = solver::by_name("DominantMinRatio").unwrap();
//! let outcome = dmr.solve(&instance, &mut SolveCtx::seeded(42)).unwrap();
//! assert!(outcome.makespan.is_finite() && outcome.makespan > 0.0);
//!
//! // Or run every registered solver and keep the best schedule.
//! let report = Portfolio::new(solver::all())
//!     .solve_detailed(&instance, &SolveCtx::seeded(42))
//!     .unwrap();
//! assert!(report.outcome.makespan <= outcome.makespan);
//! ```

#![forbid(unsafe_code)]

pub mod algo;
pub mod cluster;
pub mod error;
pub mod eval;
pub mod model;
pub mod npc;
pub mod obs;
pub mod parallel;
pub mod persist;
pub mod session;
pub mod solver;
pub mod theory;
pub mod tune;

pub use algo::{BuildOrder, Choice, Outcome, Strategy};
pub use cluster::{ClusterMetrics, ClusterOutcome, ClusterSim, Event, EventHeap, JobSpec};
pub use error::{CoschedError, Result};
pub use eval::{EvalScratch, EvalSet, EvalStats};
pub use model::{Application, Assignment, Platform, Schedule};
pub use session::{InstanceHandle, InstanceId, Session, SessionStats};
pub use solver::{Instance, Portfolio, SolveCtx, Solver};
pub use tune::{Auto, TuneConfig, TunerStats};

/// Relative tolerance used by the bisection solvers and the equal-finish-time
/// verification helpers throughout the crate.
pub const REL_TOL: f64 = 1e-12;
