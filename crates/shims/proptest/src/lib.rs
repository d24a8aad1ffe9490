//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! re-implements the subset of proptest this workspace uses: the
//! [`proptest!`] macro (with `#![proptest_config(..)]`), numeric-range and
//! tuple strategies, [`collection::vec`], [`Strategy::prop_map`], and the
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!` macros.
//!
//! It is a plain random-sampling property runner: every case draws fresh
//! inputs from a generator seeded by the test's name, so failures are
//! reproducible run-to-run. There is **no shrinking** — a failing case is
//! reported as-is.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::ops::{Range, RangeInclusive};

/// How a property test case ends when it does not simply succeed.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case's inputs were rejected by `prop_assume!`; not a failure.
    Reject,
    /// A `prop_assert!` failed with the given message.
    Fail(String),
}

/// Result type produced by a property body.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; only the number of cases is tunable.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to execute per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A generator of random values of type [`Strategy::Value`].
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps the produced values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

impl<T: Clone + PartialOrd> Strategy for Range<T>
where
    Range<T>: rand::SampleRange<T>,
{
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        rng.random_range(self.clone())
    }
}

impl<T: Clone + PartialOrd> Strategy for RangeInclusive<T>
where
    RangeInclusive<T>: rand::SampleRange<T>,
{
    type Value = T;
    fn sample(&self, rng: &mut StdRng) -> T {
        rng.random_range(self.clone())
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! tuple_strategy {
    ($($s:ident / $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    };
}
tuple_strategy!(A / 0);
tuple_strategy!(A / 0, B / 1);
tuple_strategy!(A / 0, B / 1, C / 2);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::RngExt as _;

    /// Inclusive bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length lies within `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            let len = rng.random_range(self.size.lo..=self.size.hi);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property-test module needs, including `prop::` paths.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just, ProptestConfig,
        Strategy, TestCaseError, TestCaseResult,
    };
}

/// Builds the deterministic per-test RNG (seeded by the test's name, so a
/// failure reproduces on rerun while distinct tests explore distinct
/// streams).
pub fn runner_rng(test_name: &str) -> StdRng {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    test_name.hash(&mut h);
    StdRng::seed_from_u64(h.finish())
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` that runs the body over `cases` sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut __proptest_rng = $crate::runner_rng(concat!(module_path!(), "::", stringify!($name)));
            for __proptest_case in 0..config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __proptest_rng);)*
                let __proptest_result: $crate::TestCaseResult = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match __proptest_result {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("property {} failed at case {}: {}",
                               stringify!($name), __proptest_case, msg);
                    }
                }
            }
        }
    )*};
}

/// Asserts a condition inside a property body (fails the case, with the
/// sampled inputs reported by the runner).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?}` != `{:?}` ({} != {})",
            l, r, stringify!($left), stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{}: `{:?}` != `{:?}`", format!($($fmt)+), l, r);
    }};
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{:?}` == `{:?}` ({} == {})",
            l, r, stringify!($left), stringify!($right)
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "{}: `{:?}` == `{:?}`", format!($($fmt)+), l, r);
    }};
}

/// Discards the current case when its sampled inputs are uninteresting.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        $crate::prop_assume!($cond)
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn runner_rng_is_stable() {
        use rand::RngExt as _;
        let a: u64 = super::runner_rng("x").random();
        let b: u64 = super::runner_rng("x").random();
        assert_eq!(a, b);
        let c: u64 = super::runner_rng("y").random();
        assert_ne!(a, c);
    }

    proptest! {
        #[test]
        fn ranges_and_tuples_sample_in_bounds(
            x in 0.5f64..2.0,
            pair in (1u64..4, 10usize..=12),
        ) {
            prop_assert!((0.5..2.0).contains(&x));
            prop_assert!((1..4).contains(&pair.0));
            prop_assert!((10..=12).contains(&pair.1));
        }

        #[test]
        fn vec_and_prop_map_compose(
            v in prop::collection::vec((1u64..5).prop_map(|n| n * 2), 2..6),
        ) {
            prop_assert!((2..6).contains(&v.len()));
            for n in &v {
                prop_assert!(*n % 2 == 0 && (2..10).contains(n), "bad element {n}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn config_and_assume_work(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n % 2, 1, "even {} cannot be odd", n);
        }
    }

    proptest! {
        #[test]
        fn just_yields_constant(v in Just(41usize)) {
            prop_assert_eq!(v, 41);
        }
    }
}
