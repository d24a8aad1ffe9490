//! Benchmark crate: see `benches/` for the Criterion targets.

#![forbid(unsafe_code)]
