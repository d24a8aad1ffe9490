//! Trace-driven cache simulation substrate.
//!
//! The paper's Table 2 was produced by instrumenting NPB binaries with
//! PEBIL and measuring miss rates on a simulated 40 MB LLC. This crate
//! rebuilds that measurement pipeline from scratch so the repository is
//! self-contained:
//!
//! * [`cache`] — a set-associative cache with pluggable replacement
//!   policies ([`policy`]): LRU, FIFO, Random and Tree-PLRU;
//! * [`partition`] — way partitioning in the style of Intel Cache
//!   Allocation Technology: capacity bitmasks restrict which ways each
//!   co-scheduled application may fill, giving the exclusive-fraction
//!   semantics the paper's model assumes;
//! * [`trace`] — synthetic memory-reference generators, including a
//!   Pareto reuse-distance generator whose miss-rate curve follows the
//!   power law of cache misses by construction;
//! * [`kernels`] — NPB-like application kernels (CG/BT/LU/SP/MG/FT access
//!   patterns) used to regenerate an analogue of Table 2;
//! * [`powerlaw`] — miss-curve measurement across cache sizes and
//!   least-squares fitting of the `(m0, α)` power-law parameters.
//!
//! # Quick start
//!
//! ```
//! use cachesim::cache::{CacheConfig, SetAssocCache};
//! use cachesim::policy::Policy;
//! use cachesim::trace::{Pattern, TraceGenerator};
//!
//! let mut cache = SetAssocCache::new(CacheConfig {
//!     size_bytes: 32 * 1024,
//!     line_size: 64,
//!     ways: 8,
//!     policy: Policy::Lru,
//! });
//! let mut gen = TraceGenerator::new(Pattern::stream(1 << 20), 42);
//! for _ in 0..10_000 {
//!     cache.access(gen.next_address());
//! }
//! assert!(cache.stats().accesses == 10_000);
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod clos;
pub mod kernels;
pub mod partition;
pub mod policy;
pub mod powerlaw;
pub mod stats;
pub mod trace;

pub use cache::{AccessOutcome, CacheConfig, SetAssocCache};
pub use clos::{ClosConfig, ClosError, ClosTable};
pub use partition::{PartitionId, PartitionedCache, WayMask};
pub use policy::Policy;
pub use powerlaw::{measure_miss_curve, MissCurve, PowerLawFit};
pub use stats::AccessStats;
pub use trace::{Pattern, TraceGenerator};
