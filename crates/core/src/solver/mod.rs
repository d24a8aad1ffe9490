//! The open solver API: [`Instance`] → [`Solver`] → [`Outcome`].
//!
//! The paper frames co-scheduling as *given applications, a platform, and
//! an objective, produce a (processors, cache-fraction) assignment
//! minimising the makespan*. This module is that framing as an API:
//!
//! * [`Instance`] — applications + platform, validated **once**, with the
//!   per-application execution models precomputed and cached;
//! * [`Solver`] — anything that maps an instance to an [`Outcome`]; the
//!   ten paper strategies implement it (via the thin
//!   [`Strategy`] enum), and downstream crates can
//!   add their own without touching this crate;
//! * [`SolveCtx`] — the RNG and per-solve knobs, bundled so the `solve`
//!   signature never has to change again;
//! * [`by_name`] / [`all`] / [`names`] — a string-keyed registry covering
//!   every paper legend name plus CLI aliases;
//! * [`Portfolio`] — a meta-solver running many solvers (optionally in
//!   parallel) and keeping the best schedule;
//! * [`solve_batch`] — deterministic seeded fan-out over many instances,
//!   the engine under the experiment harness' sweeps.
//!
//! # Example
//!
//! ```
//! use coschedule::model::{Application, Platform};
//! use coschedule::solver::{self, Instance, SolveCtx};
//!
//! let instance = Instance::new(
//!     vec![
//!         Application::new("CG", 5.70e10, 0.05, 0.535, 6.59e-4),
//!         Application::new("BT", 2.10e11, 0.05, 0.829, 7.31e-3),
//!     ],
//!     Platform::taihulight(),
//! )
//! .unwrap();
//!
//! let dmr = solver::by_name("DominantMinRatio").unwrap();
//! let outcome = dmr.solve(&instance, &mut SolveCtx::seeded(42)).unwrap();
//! assert!(outcome.makespan.is_finite() && outcome.makespan > 0.0);
//! ```

use crate::algo::{Outcome, Strategy};
use crate::error::Result;

mod batch;
mod ctx;
mod instance;
mod portfolio;
mod strategies;

pub use batch::{batch_eval_stats, solve_batch, BatchSpec, InstanceSource};
pub use ctx::{child_seed, SolveCtx};
pub use instance::Instance;
pub use portfolio::{MemberOutcome, Portfolio, PortfolioOutcome};

/// A complete co-scheduling algorithm: maps a validated [`Instance`] to an
/// [`Outcome`] (cache partition, processor split, makespan).
///
/// Implementations must be deterministic given the [`SolveCtx`] seed; all
/// randomness must come from [`SolveCtx::rng`]. `Send + Sync` lets
/// [`Portfolio`] and [`solve_batch`] fan solvers out across threads.
pub trait Solver: Send + Sync {
    /// Display name, matching the paper's figure legends where one exists
    /// (e.g. `DominantMinRatio`, `0cache`).
    fn name(&self) -> String;

    /// `true` iff the solver makes random decisions (its outcome depends
    /// on the [`SolveCtx`] seed and sweeps should average repetitions).
    fn is_randomized(&self) -> bool {
        false
    }

    /// Solves `instance`, drawing any randomness from `ctx`.
    fn solve(&self, instance: &Instance, ctx: &mut SolveCtx) -> Result<Outcome>;
}

/// Every registered solver, in the paper's legend order: the six dominant
/// heuristics, RandomPart, Fair, 0cache, AllProcCache, and the
/// DominantRefined extension.
pub fn all() -> Vec<Box<dyn Solver>> {
    let mut v: Vec<Box<dyn Solver>> = Strategy::all_coscheduling()
        .into_iter()
        .map(|s| s.to_solver())
        .collect();
    v.push(Strategy::AllProcCache.to_solver());
    v.push(Strategy::refined().to_solver());
    v
}

/// Names addressable through [`by_name`], canonical spellings only: the
/// individual solvers first, then `exact` and the meta-solvers
/// `Portfolio` and `auto`.
pub fn names() -> Vec<String> {
    let mut v: Vec<String> = all().iter().map(|s| s.name()).collect();
    v.push("exact".to_string());
    v.push("Portfolio".to_string());
    v.push("auto".to_string());
    v
}

/// One-line human description of a registered solver name, for
/// `cosched --list-strategies` and other help surfaces. Unknown names get
/// a generic line rather than an error so the function can never lag the
/// registry.
pub fn describe(name: &str) -> &'static str {
    match name.trim().to_ascii_lowercase().as_str() {
        "dominantrandom" => "Algorithm 1 (forward build), random candidate choice",
        "dominantminratio" => "Algorithm 1 (forward build), smallest dominance ratio first",
        "dominantmaxratio" => "Algorithm 1 (forward build), largest dominance ratio first",
        "dominantrevrandom" => "Algorithm 2 (reverse trim), random candidate choice",
        "dominantrevminratio" => "Algorithm 2 (reverse trim), smallest dominance ratio first",
        "dominantrevmaxratio" => "Algorithm 2 (reverse trim), largest dominance ratio first",
        "randompart" => "baseline: uniformly random cache-sharing subset",
        "fair" => "baseline: every application gets an equal cache share",
        "0cache" => "baseline: nobody gets cache, processors split by Eq. 2",
        "allproccache" => "baseline: applications run one at a time with all resources",
        "dominantrefined" => "DominantMinRatio plus local-search refinement (§6.4)",
        "exact" | "bnb" => {
            "branch-and-bound proven optimum (budget flags: --nodes, --millis, --threads); \
             returns its best incumbent with optimal=false when the budget runs out"
        }
        "portfolio" => "meta: runs every solver and keeps the best outcome",
        "auto" => "meta: bandit autotuner that learns the best solver per workload",
        _ => "registered solver (no description)",
    }
}

/// Looks a solver up by name.
///
/// Lookups are normalized — surrounding whitespace is trimmed and the
/// comparison is case-insensitive — so the names users type at a CLI or
/// send over the `cosched serve` wire resolve without ceremony. Accepts
/// every paper legend name (`DominantMinRatio`, `DominantRevMaxRatio`,
/// `RandomPart`, `Fair`, `0cache`, `AllProcCache`, `DominantRefined`), the
/// historical CLI aliases (`dmr`, `refined`, `zerocache`, `seq`),
/// `exact` (alias `bnb` — the branch-and-bound
/// [`BnbSolver`](crate::algo::BnbSolver) with default budgets),
/// `Portfolio` (a [`Portfolio`] over [`all`]), and `auto` (a **fresh**
/// [`Auto`](crate::tune::Auto) autotuner over [`all`] — its learning
/// lives as long as the returned solver instance; a
/// [`Session`](crate::session::Session) instead shares one tuner across
/// all its resolves).
///
/// # Errors
/// [`CoschedError::UnknownSolver`](crate::error::CoschedError::UnknownSolver)
/// carrying the offending name and the full list of accepted names, so
/// callers can render a useful message without consulting the registry
/// themselves.
pub fn by_name(name: &str) -> Result<Box<dyn Solver>> {
    let wanted = name.trim();
    for s in all() {
        if s.name().eq_ignore_ascii_case(wanted) {
            return Ok(s);
        }
    }
    match wanted.to_ascii_lowercase().as_str() {
        "dmr" => Ok(Strategy::dominant(
            crate::algo::BuildOrder::Forward,
            crate::algo::Choice::MinRatio,
        )
        .to_solver()),
        "refined" => Ok(Strategy::refined().to_solver()),
        "zerocache" => Ok(Strategy::ZeroCache.to_solver()),
        "seq" | "sequential" => Ok(Strategy::AllProcCache.to_solver()),
        "exact" | "bnb" => Ok(Box::new(crate::algo::BnbSolver::new())),
        "portfolio" => Ok(Box::new(Portfolio::new(all()))),
        "auto" => Ok(Box::new(crate::tune::Auto::new())),
        _ => Err(crate::error::CoschedError::UnknownSolver {
            name: name.to_string(),
            available: names(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Application, Platform};

    fn instance() -> Instance {
        let apps = vec![
            Application::new("CG", 5.70e10, 0.05, 0.535, 6.59e-4),
            Application::new("BT", 2.10e11, 0.03, 0.829, 7.31e-3),
            Application::new("LU", 1.52e11, 0.07, 0.750, 1.51e-3),
        ];
        Instance::new(apps, Platform::taihulight()).unwrap()
    }

    #[test]
    fn registry_covers_all_legend_names() {
        let expected = [
            "DominantRandom",
            "DominantMinRatio",
            "DominantMaxRatio",
            "DominantRevRandom",
            "DominantRevMinRatio",
            "DominantRevMaxRatio",
            "RandomPart",
            "Fair",
            "0cache",
            "AllProcCache",
            "DominantRefined",
        ];
        let names: Vec<String> = all().iter().map(|s| s.name()).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn by_name_round_trips_every_registered_solver() {
        let inst = instance();
        for s in all() {
            let looked_up = by_name(&s.name())
                .unwrap_or_else(|e| panic!("{} not addressable by name: {e}", s.name()));
            assert_eq!(looked_up.name(), s.name());
            assert_eq!(looked_up.is_randomized(), s.is_randomized());
            let a = looked_up.solve(&inst, &mut SolveCtx::seeded(7)).unwrap();
            let b = s.solve(&inst, &mut SolveCtx::seeded(7)).unwrap();
            assert_eq!(a, b, "{} behaves differently after lookup", s.name());
        }
    }

    #[test]
    fn lookup_is_normalized_and_knows_aliases() {
        for (alias, canonical) in [
            ("dominantminratio", "DominantMinRatio"),
            ("dmr", "DominantMinRatio"),
            (" dmr ", "DominantMinRatio"),
            ("FAIR", "Fair"),
            ("Fair\n", "Fair"),
            ("0cache", "0cache"),
            ("zerocache", "0cache"),
            ("seq", "AllProcCache"),
            ("refined", "DominantRefined"),
            ("\tPortfolio ", "Portfolio"),
            ("AUTO", "auto"),
            (" auto ", "auto"),
            ("exact", "exact"),
            ("EXACT", "exact"),
            ("bnb", "exact"),
        ] {
            assert_eq!(by_name(alias).unwrap().name(), canonical, "alias {alias:?}");
        }
    }

    #[test]
    fn unknown_names_report_the_available_registry() {
        match by_name("no-such-solver") {
            Err(crate::error::CoschedError::UnknownSolver { name, available }) => {
                assert_eq!(name, "no-such-solver");
                assert_eq!(available, names());
            }
            other => panic!("unexpected: {:?}", other.map(|s| s.name())),
        }
    }

    #[test]
    fn names_lists_individual_solvers_then_meta_solvers() {
        let n = names();
        assert_eq!(n.last().map(String::as_str), Some("auto"));
        assert_eq!(n[n.len() - 2].as_str(), "Portfolio");
        assert_eq!(n[n.len() - 3].as_str(), "exact");
        assert_eq!(n.len(), all().len() + 3);
        for name in &n {
            assert!(by_name(name).is_ok(), "{name} not resolvable");
        }
    }

    #[test]
    fn every_registered_name_has_a_specific_description() {
        for name in names() {
            let d = describe(&name);
            assert!(
                d != "registered solver (no description)",
                "{name} lacks a description"
            );
        }
        assert_eq!(describe("exact"), describe("bnb"));
    }
}
