//! A minimal, dependency-free, API-compatible subset of [`proptest`],
//! vendored locally so the workspace builds in offline environments.
//!
//! Supports the surface this workspace uses: the [`proptest!`],
//! [`prop_compose!`], [`prop_assert!`], [`prop_assert_eq!`], and
//! [`prop_assume!`] macros, numeric-range and [`collection::vec`]
//! strategies, [`any`], and [`ProptestConfig::with_cases`]. Unlike real
//! proptest there is **no shrinking**: a failing case reports its inputs
//! and panics. Case generation is deterministic per test (fixed seed,
//! overridable with `PROPTEST_SEED`), so failures reproduce run-to-run.
//!
//! [`proptest`]: https://crates.io/crates/proptest

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

use rand::{Rng, SeedableRng};

/// The RNG driving case generation.
pub type TestRng = rand::rngs::StdRng;

/// Why a single generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the runner draws a fresh case.
    Reject,
    /// `prop_assert!`-style failure with its message.
    Fail(String),
}

/// Runner configuration; only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful (non-rejected) cases required.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` successful cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_strategy_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

/// A constant strategy, always yielding a clone of its value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen::<$t>()
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<bool>()
    }
}

/// Marker strategy returned by [`any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of all values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// A strategy computed by a closure; what [`prop_compose!`] expands to.
pub struct FnStrategy<T, F: Fn(&mut TestRng) -> T> {
    f: F,
}

impl<T, F: Fn(&mut TestRng) -> T> FnStrategy<T, F> {
    /// Wraps a sampling function.
    pub fn new(f: F) -> Self {
        FnStrategy { f }
    }
}

impl<T, F: Fn(&mut TestRng) -> T> Strategy for FnStrategy<T, F> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// How many elements a [`vec`] strategy draws.
    #[derive(Debug, Clone)]
    pub enum SizeRange {
        /// Exactly this many.
        Fixed(usize),
        /// Uniform in `lo..hi` (exclusive).
        Range(usize, usize),
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange::Fixed(n)
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange::Range(r.start, r.end)
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange::Range(*r.start(), *r.end() + 1)
        }
    }

    /// The strategy of vectors whose elements come from `elem`.
    pub struct VecStrategy<S: Strategy> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = match self.size {
                SizeRange::Fixed(n) => n,
                SizeRange::Range(lo, hi) => rng.gen_range(lo..hi),
            };
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// Vectors of `size.into()` elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// Drives one `proptest!`-generated test: draws cases until `config.cases`
/// pass, retrying rejected cases (bounded), panicking on the first failure.
pub fn run_proptest<F>(config: &ProptestConfig, name: &str, mut one_case: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let seed = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            // Stable per-test seed so failures reproduce.
            name.bytes().fold(0xC0FF_EEu64, |h, b| {
                h.wrapping_mul(0x100_0000_01B3).wrapping_add(b as u64)
            })
        });
    let mut rng = TestRng::seed_from_u64(seed);
    let mut passed = 0u32;
    let mut rejected = 0u64;
    let max_rejects = (config.cases as u64).saturating_mul(1024).max(65_536);
    while passed < config.cases {
        match one_case(&mut rng) {
            Ok(()) => passed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected <= max_rejects,
                    "proptest `{name}`: too many prop_assume! rejections ({rejected})"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest `{name}` failed after {passed} passing case(s): {msg}\n(seed {seed}; rerun with PROPTEST_SEED={seed})")
            }
        }
    }
}

/// Defines property tests: each `#[test] fn name(arg in strategy, ...) { body }`
/// runs [`ProptestConfig::cases`] random cases. As in real proptest, the
/// caller's attributes (`#[test]` included) pass through unchanged and the
/// macro adds none of its own, so each test is registered exactly once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                $crate::run_proptest(&__config, stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::sample(&($strat), __rng);)+
                    let __inputs = format!(
                        concat!($(stringify!($arg), " = {:?}; "),+),
                        $(&$arg),+
                    );
                    let __result = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    match __result {
                        ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                            ::std::result::Result::Err($crate::TestCaseError::Fail(
                                format!("{msg}\n  inputs: {}", __inputs),
                            ))
                        }
                        other => other,
                    }
                });
            }
        )*
    };
}

/// Defines a reusable parameterized strategy as a function returning
/// `impl Strategy`.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($param:ident: $pty:ty),* $(,)?)($($arg:ident in $strat:expr),+ $(,)?) -> $out:ty $body:block) => {
        $(#[$meta])*
        $vis fn $name($($param: $pty),*) -> impl $crate::Strategy<Value = $out> {
            $crate::FnStrategy::new(move |__rng: &mut $crate::TestRng| -> $out {
                $(let $arg = $crate::Strategy::sample(&($strat), __rng);)+
                $body
            })
        }
    };
}

/// Asserts inside a proptest body, failing the case (not the process).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Equality assertion inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__left, __right) = (&$a, &$b);
        if !(*__left == *__right) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), __left, __right
            )));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (__left, __right) = (&$a, &$b);
        if !(*__left == *__right) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), __left, __right
            )));
        }
    }};
}

/// Inequality assertion inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__left, __right) = (&$a, &$b);
        if *__left == *__right {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __left
            )));
        }
    }};
}

/// Rejects the current case, drawing a fresh one.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// The everyday imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose, proptest, Any,
        Arbitrary, Just, ProptestConfig, Strategy, TestCaseError,
    };

    /// Mirrors `proptest::prelude::prop` (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_in_bounds(n in 3usize..10, p in 0.1f64..0.9, s in 0u64..1000) {
            prop_assert!((3..10).contains(&n));
            prop_assert!((0.1..0.9).contains(&p));
            prop_assert!(s < 1000);
        }

        #[test]
        fn vec_strategy_sizes(bytes in collection::vec(any::<u8>(), 0..40)) {
            prop_assert!(bytes.len() < 40);
        }

        #[test]
        fn assume_retries(n in 0usize..100) {
            prop_assume!(n % 2 == 0);
            prop_assert!(n % 2 == 0);
        }
    }

    prop_compose! {
        fn arb_pair(max: u64)(a in 0u64..1000, b in collection::vec(0u64..10, 3)) -> (u64, Vec<u64>) {
            (a.min(max), b)
        }
    }

    proptest! {
        #[test]
        fn composed(pair in arb_pair(5)) {
            prop_assert!(pair.0 <= 5);
            prop_assert_eq!(pair.1.len(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "failed after")]
    fn failure_reports_inputs() {
        run_proptest(
            &ProptestConfig::with_cases(10),
            "failure_reports_inputs",
            |_rng| Err(TestCaseError::Fail("boom".to_string())),
        );
    }

    use super::{run_proptest, ProptestConfig as PC, TestCaseError as TCE};

    #[test]
    #[should_panic(expected = "too many")]
    fn rejection_storm_bounded() {
        run_proptest(&PC::with_cases(1), "rejection_storm", |_rng| {
            Err(TCE::Reject)
        });
    }
}
