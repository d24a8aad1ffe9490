//! Figure/table regeneration harness.
//!
//! One driver per figure and table of the paper's evaluation (§6 and
//! Appendix A), all reachable through the [`registry`](mod@registry) and the
//! `run_experiments` binary:
//!
//! ```text
//! cargo run -p experiments --release --bin run_experiments -- all
//! cargo run -p experiments --release --bin run_experiments -- fig1 fig5
//! ```
//!
//! Every experiment is deterministic under its seed, runs its repetitions
//! in parallel, writes `results/<id>.csv` and prints an aligned table plus
//! the qualitative checks recorded in EXPERIMENTS.md.
//!
//! The crate also hosts the [`serve`] module tree — the line-delimited
//! JSON protocol behind `cosched serve`/`cosched client`, fronting one
//! long-lived [`coschedule::session::Session`] per worker: `--workers N`
//! shards instances across per-worker sessions with multiplexed
//! connections (see [`serve`] for the protocol/router/worker/conn/metrics
//! layering) — and the [`tune`] replay harness behind `cosched tune`,
//! which drives the [`coschedule::tune`] autotuner over an NPB-6
//! mutation/solve trace and prints the learned table.

pub mod appcsv;
pub mod cluster;
pub mod config;
pub mod figures;
pub mod output;
pub mod registry;
pub mod runner;
pub mod serve;
pub mod tune;

pub use config::ExpConfig;
pub use output::{FigureData, Series};
pub use registry::{registry, Experiment};
