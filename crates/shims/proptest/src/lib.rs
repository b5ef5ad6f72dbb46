//! API-compatible subset of `proptest` for offline builds.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the property-testing surface its tests use: the
//! [`Strategy`] trait (ranges, [`Just`], `prop_map`, weighted
//! [`prop_oneof!`]), [`collection::vec`] / [`collection::btree_set`], the
//! [`proptest!`] macro with optional `#![proptest_config(..)]`, and the
//! `prop_assert*` macros.
//!
//! Differences from the real crate, by design: failing cases are **not
//! shrunk** (the panic message reports the case number so the fixed
//! per-test seed reproduces it), and `prop_assert!` panics rather than
//! returning a `TestCaseError`.

use std::collections::BTreeSet;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};

/// Per-test runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// The cases to run: the `PROPTEST_CASES` environment variable when it
    /// holds a number (a longer run of the same properties), else `cases`.
    pub fn cases_to_run(&self) -> u32 {
        cases_override(std::env::var("PROPTEST_CASES").ok().as_deref()).unwrap_or(self.cases)
    }
}

fn cases_override(var: Option<&str>) -> Option<u32> {
    var?.trim().parse().ok()
}

/// The random source threaded through strategies.
pub struct TestRunner {
    rng: StdRng,
}

impl TestRunner {
    /// Deterministic runner seeded from the test name.
    pub fn new(seed_name: &str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in seed_name.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x1000_0000_01b3);
        }
        TestRunner {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Uniform sample in `range`.
    pub fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        self.rng.gen_range(range)
    }
}

/// A generator of random values (subset of `proptest::strategy::Strategy`).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Produce one value.
    fn generate(&self, runner: &mut TestRunner) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Box the strategy (type erasure for heterogeneous unions).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, runner: &mut TestRunner) -> T {
        (**self).generate(runner)
    }
}

impl<T: SampleUniform> Strategy for Range<T> {
    type Value = T;
    fn generate(&self, runner: &mut TestRunner) -> T {
        runner.gen_range(self.clone())
    }
}

/// Strategy producing a fixed value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _runner: &mut TestRunner) -> T {
        self.0.clone()
    }
}

/// Result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, runner: &mut TestRunner) -> O {
        (self.f)(self.inner.generate(runner))
    }
}

/// Weighted union of boxed strategies (backs [`prop_oneof!`]).
pub struct WeightedUnion<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> WeightedUnion<T> {
    /// Build from `(weight, strategy)` arms.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        let total = arms.iter().map(|(w, _)| *w as u64).sum::<u64>().max(1);
        WeightedUnion { arms, total }
    }
}

impl<T> Strategy for WeightedUnion<T> {
    type Value = T;
    fn generate(&self, runner: &mut TestRunner) -> T {
        let mut pick = runner.next_u64() % self.total;
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.generate(runner);
            }
            pick -= *w as u64;
        }
        self.arms.last().expect("non-empty").1.generate(runner)
    }
}

/// Collection strategies (subset of `proptest::collection`).
pub mod collection {
    use super::*;

    /// Strategy for `Vec<T>` with size drawn from `sizes`.
    pub struct VecStrategy<S> {
        element: S,
        sizes: Range<usize>,
    }

    /// Generate vectors of `element` values with length in `sizes`.
    pub fn vec<S: Strategy>(element: S, sizes: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, sizes }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            let n = if self.sizes.is_empty() {
                self.sizes.start
            } else {
                runner.gen_range(self.sizes.clone())
            };
            (0..n).map(|_| self.element.generate(runner)).collect()
        }
    }

    /// Strategy for `BTreeSet<T>` with target size drawn from `sizes`.
    pub struct BTreeSetStrategy<S> {
        element: S,
        sizes: Range<usize>,
    }

    /// Generate sets of `element` values with size in `sizes` (best-effort
    /// when the element domain is smaller than the requested size).
    pub fn btree_set<S>(element: S, sizes: Range<usize>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, sizes }
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> BTreeSet<S::Value> {
            let target = if self.sizes.is_empty() {
                self.sizes.start
            } else {
                runner.gen_range(self.sizes.clone())
            };
            let mut set = BTreeSet::new();
            // Bounded attempts: small element domains may not reach target.
            for _ in 0..target.saturating_mul(10).max(8) {
                if set.len() >= target {
                    break;
                }
                set.insert(self.element.generate(runner));
            }
            set
        }
    }
}

/// One-stop imports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, BoxedStrategy, Just,
        ProptestConfig, Strategy, TestRunner,
    };

    /// Mirror of the real prelude's `prop` module path.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Assert inside a property (panics; no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($arg:tt)*) => { assert_ne!($($arg)*) };
}

/// Weighted (or uniform) choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strategy:expr),+ $(,)?) => {
        $crate::WeightedUnion::new(vec![
            $(($weight as u32, $crate::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::WeightedUnion::new(vec![
            $((1u32, $crate::Strategy::boxed($strategy))),+
        ])
    };
}

/// Define property tests: each `#[test] fn name(arg in strategy, ..)`
/// becomes a normal test running `cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $(
        #[test]
        fn $name:ident ( $($arg:ident in $strategy:expr),+ $(,)? ) $body:block
    )*) => {
        $(
            #[test]
            fn $name() {
                let cases = $config.cases_to_run();
                let mut runner = $crate::TestRunner::new(stringify!($name));
                for case in 0..cases {
                    $( let $arg = $crate::Strategy::generate(&$strategy, &mut runner); )+
                    let run = || { $body };
                    if let Err(panic) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(run)) {
                        eprintln!(
                            "proptest shim: property {} failed on case {}/{}",
                            stringify!($name), case + 1, cases
                        );
                        ::std::panic::resume_unwind(panic);
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn a_numeric_cases_variable_overrides_the_config() {
        assert_eq!(super::cases_override(Some("1024")), Some(1024));
        assert_eq!(super::cases_override(Some("lots")), None);
        assert_eq!(super::cases_override(None), None);
    }

    #[test]
    fn ranges_and_just_generate() {
        let mut r = TestRunner::new("t");
        for _ in 0..100 {
            let v = Strategy::generate(&(0i64..10), &mut r);
            assert!((0..10).contains(&v));
        }
        assert_eq!(Strategy::generate(&Just(7), &mut r), 7);
    }

    #[test]
    fn collections_respect_sizes() {
        let mut r = TestRunner::new("c");
        for _ in 0..50 {
            let v = Strategy::generate(&prop::collection::vec(0i64..5, 1..4), &mut r);
            assert!((1..4).contains(&v.len()));
            let s = Strategy::generate(&prop::collection::btree_set(0usize..100, 0..10), &mut r);
            assert!(s.len() < 10);
        }
    }

    #[test]
    fn oneof_weights_cover_all_arms() {
        let mut r = TestRunner::new("w");
        let s = prop_oneof![9 => (0i64..1).prop_map(|_| 1i64), 1 => Just(2i64)];
        let got: Vec<i64> = (0..200).map(|_| Strategy::generate(&s, &mut r)).collect();
        assert!(got.contains(&1) && got.contains(&2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_binds_arguments(a in 0i64..10, b in prop::collection::vec(0i64..5, 0..6)) {
            prop_assert!((0..10).contains(&a));
            prop_assert!(b.len() < 6);
            prop_assert_eq!(b.len(), b.iter().filter(|v| **v < 5).count());
        }
    }
}
