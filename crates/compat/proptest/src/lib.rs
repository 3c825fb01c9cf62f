//! Offline, API-compatible subset of the
//! [`proptest`](https://crates.io/crates/proptest) property-testing
//! framework.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! the slice of the proptest API its tests use: the [`proptest!`] macro with
//! `#![proptest_config(...)]`, range and tuple [`Strategy`](strategy::Strategy) values,
//! [`Strategy::prop_map`](strategy::Strategy::prop_map), and the `prop_assert*` macros.
//!
//! Differences from upstream: failing cases are **not shrunk** (the failing
//! input is printed as-is), and generation is deterministic from a fixed
//! seed so test failures always reproduce. Both trade-offs favour a small,
//! dependable harness over exploratory ergonomics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;
pub mod test_runner;

/// The glob-importable prelude, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Defines property tests, mirroring `proptest::proptest!`.
///
/// Supports the block form with an optional `#![proptest_config(expr)]`
/// inner attribute followed by any number of test functions whose arguments
/// use `pattern in strategy` syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`]; parses one test function at a
/// time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = $config:expr;) => {};
    (
        config = $config:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut runner = $crate::test_runner::TestRunner::new(config);
            let strategy = ($($strat,)+);
            runner.run(&strategy, |($($arg,)+)| {
                $body
                Ok(())
            });
        }
        $crate::__proptest_fns! { config = $config; $($rest)* }
    };
}

/// Asserts a condition inside a [`proptest!`] body, reporting the failing
/// input instead of panicking blindly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left != right) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                left
            )));
        }
    }};
}

/// Discards the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::reject(format!(
                "assumption failed: {}",
                stringify!($cond)
            )));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair_strategy() -> impl Strategy<Value = (usize, usize)> {
        (1usize..50, 1usize..50).prop_map(|(a, b)| (a.min(b), a.max(b)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 5usize..12, y in 0.25f64..0.75) {
            prop_assert!((5..12).contains(&x));
            prop_assert!((0.25..0.75).contains(&y), "y was {}", y);
        }

        #[test]
        fn prop_map_composes(pair in pair_strategy()) {
            let (lo, hi) = pair;
            prop_assert!(lo <= hi);
            prop_assert_eq!(lo.min(hi), lo);
            prop_assert_ne!(hi + 1, lo);
        }

        #[test]
        fn assumptions_discard_cases(x in 0usize..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "assertion failed")]
    fn failing_property_panics_with_input() {
        let mut runner = TestRunner::new(ProptestConfig::with_cases(16));
        runner.run(&(0usize..10,), |(x,)| {
            prop_assert!(x < 3, "x too large");
            Ok(())
        });
    }

    #[test]
    fn generation_is_deterministic() {
        let collect = || {
            let mut out = Vec::new();
            let mut runner = TestRunner::new(ProptestConfig::with_cases(10));
            runner.run(&(0usize..1000,), |(x,)| {
                out.push(x);
                Ok(())
            });
            out
        };
        assert_eq!(collect(), collect());
    }
}
