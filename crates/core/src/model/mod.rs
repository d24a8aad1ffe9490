//! Platform and application model (paper §3).
//!
//! The model has three layers:
//!
//! * [`Platform`] — the machine: `p` processors, LLC of size `Cs`, latencies
//!   `ls`/`ll`, power-law sensitivity `α`, and the reference cache size `C0`
//!   at which application miss rates were measured.
//! * [`Application`] — one parallel job: work `w`, sequential fraction `s`
//!   (Amdahl), data-access frequency `f`, memory footprint `a`, and the
//!   reference miss rate `m0` measured on a cache of size `C0`.
//! * [`Schedule`] — a vector of per-application [`Assignment`]s
//!   `(p_i, x_i)`, with validation and makespan evaluation.
//!
//! The cost model itself (Eq. 1 and Eq. 2 of the paper) is in `exec` and
//! `powerlaw`.

mod application;
mod exec;
mod platform;
mod powerlaw;
mod schedule;

pub(crate) use application::validate_instance;
pub use application::Application;
pub use exec::{exec_time, seq_cost, seq_cost_full_miss, ExecModel};
pub use platform::Platform;
pub use powerlaw::{effective_fraction, miss_rate, scaled_miss_rate, useful_threshold};
pub use schedule::{sequential_makespan, Assignment, Schedule};
