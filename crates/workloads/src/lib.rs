//! Workload datasets for the co-scheduling experiments.
//!
//! The paper's simulations (§6.1 and Appendix A) use three data sets, all
//! anchored at the NAS Parallel Benchmark (NPB) measurements of Table 2:
//!
//! * **NPB-6** — exactly the six instrumented benchmarks;
//! * **NPB-SYNTH** — synthetic applications cycling through the six NPB
//!   profiles with the work `w_i` redrawn uniformly in `[10^8, 10^12]`;
//! * **RANDOM** — fully synthetic applications with `w_i ∈ [10^8, 10^12]`,
//!   `f_i ∈ [0.1, 0.9]` and `m_i(40MB) ∈ [9·10^-4, 10^-2]`.
//!
//! Unless a dataset is requested perfectly parallel, each application draws
//! a sequential fraction `s_i` uniformly in `[0.01, 0.15]` (§6.1).

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod npb;
pub mod rng;
pub mod synth;

pub use arrivals::{jobs_from_arrivals, sample_arrivals, RateProfile};
pub use npb::{npb6, NpbBenchmark, NPB_TABLE};
pub use rng::seeded_rng;
pub use synth::{Dataset, SeqFraction};
