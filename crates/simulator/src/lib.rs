//! Discrete-time co-execution simulator.
//!
//! The paper evaluates its heuristics analytically (Eq. 2) and lists real
//! cache-partitioned experiments as future work. This crate provides the
//! closest laptop-scale stand-in: it executes a `coschedule::Schedule`
//! against the dynamic `cachesim` substrate — every application issuing
//! real memory references into a way-partitioned (or shared, contended)
//! LLC — and compares the measured makespan with the analytic prediction.
//!
//! * [`engine`] — the co-execution loop;
//! * [`validate`] — model-vs-simulation reports.

#![forbid(unsafe_code)]

pub mod engine;
pub mod validate;

pub use engine::{CoSimConfig, CoSimulator, SimOutcome};
pub use validate::{validate_schedule, ValidationReport};
