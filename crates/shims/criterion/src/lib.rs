//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API surface used by `crates/bench` — `Criterion`,
//! benchmark groups, `Bencher::iter`, `BenchmarkId`, `Throughput`,
//! `black_box`, and the `criterion_group!` / `criterion_main!` macros —
//! as a small wall-clock harness. Each benchmark is warmed up, then timed
//! over a fixed measurement window, and the mean iteration time is printed
//! in a criterion-like one-line format. There are no statistics, plots, or
//! saved baselines.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level harness handle.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

#[derive(Debug, Clone, Copy)]
struct Timing {
    warm_up: Duration,
    measurement: Duration,
}

impl Default for Timing {
    fn default() -> Self {
        Self {
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
        }
    }
}

impl Criterion {
    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(id, Timing::default(), &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            timing: Timing::default(),
        }
    }

    /// Compatibility no-op (the real crate parses CLI arguments here).
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Compatibility no-op (the real crate prints a summary here).
    pub fn final_summary(&mut self) {}
}

/// A group of benchmarks sharing timing configuration.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    timing: Timing,
}

impl BenchmarkGroup<'_> {
    /// Sets the warm-up duration.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.timing.warm_up = d;
        self
    }

    /// Sets the measurement window.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.timing.measurement = d;
        self
    }

    /// Accepted for compatibility; this harness times a window rather than
    /// a fixed sample count, so the value is ignored.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for compatibility; throughput is not reported.
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(&label, self.timing, &mut f);
        self
    }

    /// Runs one benchmark with an explicit input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(&label, self.timing, &mut |b| f(b, input));
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Identifier of one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A `function_name/parameter` id.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        Self {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id consisting of the parameter only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

/// Conversion into a printable benchmark id (`&str` or [`BenchmarkId`]).
pub trait IntoBenchmarkId {
    /// The printable form.
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.label
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Declared throughput of a benchmark (accepted, not reported).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Timer handle passed to each benchmark closure.
pub struct Bencher {
    iters_done: u64,
    elapsed: Duration,
    deadline: Instant,
}

impl Bencher {
    /// Times `routine` repeatedly until the measurement window closes.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        loop {
            let start = Instant::now();
            black_box(routine());
            self.elapsed += start.elapsed();
            self.iters_done += 1;
            if Instant::now() >= self.deadline {
                break;
            }
        }
    }
}

fn run_one(label: &str, timing: Timing, f: &mut dyn FnMut(&mut Bencher)) {
    // Warm-up: run the routine without recording.
    let mut warm = Bencher {
        iters_done: 0,
        elapsed: Duration::ZERO,
        deadline: Instant::now() + timing.warm_up,
    };
    f(&mut warm);

    let mut bencher = Bencher {
        iters_done: 0,
        elapsed: Duration::ZERO,
        deadline: Instant::now() + timing.measurement,
    };
    f(&mut bencher);

    let mean = if bencher.iters_done > 0 {
        bencher.elapsed.as_nanos() as f64 / bencher.iters_done as f64
    } else {
        f64::NAN
    };
    println!(
        "{label:<50} time: [{}]   ({} iterations)",
        format_nanos(mean),
        bencher.iters_done
    );
}

fn format_nanos(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.2} ns")
    } else if ns < 1e6 {
        format!("{:.3} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Collects benchmark functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Emits a `main` running the given groups (for `harness = false` targets).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Timing {
        Timing {
            warm_up: Duration::from_millis(1),
            measurement: Duration::from_millis(5),
        }
    }

    #[test]
    fn bencher_counts_iterations() {
        let mut count = 0u64;
        run_one("test/counting", quick(), &mut |b| {
            b.iter(|| count += 1);
        });
        assert!(count > 0);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2))
            .sample_size(10)
            .throughput(Throughput::Elements(4));
        group.bench_with_input(BenchmarkId::new("f", 4), &4u64, |b, n| {
            b.iter(|| black_box(n * 2));
        });
        group.bench_function(BenchmarkId::from_parameter(8), |b| b.iter(|| 1 + 1));
        group.finish();
        c.bench_function("standalone", |b| b.iter(|| 2 + 2));
    }

    #[test]
    fn ids_format_as_expected() {
        assert_eq!(BenchmarkId::new("f", 16).into_benchmark_id(), "f/16");
        assert_eq!(BenchmarkId::from_parameter(3).into_benchmark_id(), "3");
    }
}
