//! Umbrella crate re-exporting the workspace libraries, used by the
//! examples and integration tests at the repository root.

#![forbid(unsafe_code)]

pub use cachesim;
pub use coschedule;
pub use cosim;
pub use experiments;
pub use workloads;
