//! Vendored stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! re-implements exactly the subset of the `proptest` 1.x surface the
//! workspace's property tests use:
//!
//! * the [`proptest!`] macro over `#[test] fn name(arg in strategy, …)`
//!   items,
//! * range strategies over `f64` / integer ranges,
//! * [`collection::vec`] for fixed-length vectors,
//! * [`Strategy::prop_map`](strategy::Strategy::prop_map),
//! * [`prop_assert!`], [`prop_assert_eq!`] and [`prop_assume!`].
//!
//! Differences from upstream: no shrinking (a failing case reports its
//! inputs via the panic message instead of a minimized counterexample)
//! and a fixed deterministic seed per test derived from the test name.
//! The number of cases per test defaults to 64 and can be raised with
//! the `PROPTEST_CASES` environment variable.

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// What `use proptest::prelude::*` is expected to bring into scope.
pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::TestCaseError;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

/// Defines property tests: each item looks like a `#[test]` function
/// whose arguments are drawn from strategies (`arg in strategy`).
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let cases = $crate::test_runner::cases();
                let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
                for case in 0..cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    let inputs = format!(
                        concat!($(concat!(stringify!($arg), " = {:?}, ")),+),
                        $(&$arg),+
                    );
                    let outcome = (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "property '{}' failed at case {}/{}: {}\n  inputs: {}",
                            stringify!($name), case + 1, cases, e, inputs
                        );
                    }
                }
            }
        )*
    };
}

/// Fails the current property case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        match $cond {
            true => {}
            false => {
                return ::std::result::Result::Err(
                    $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
                );
            }
        }
    };
}

/// Fails the current property case unless both expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: {} == {} (left: {:?}, right: {:?})",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)*);
    }};
}

/// Skips the current property case when the assumption does not hold.
///
/// Upstream proptest rejects and redraws; this stand-in simply treats the
/// case as vacuously passing, which preserves soundness of the tests.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        match $cond {
            true => {}
            false => return ::std::result::Result::Ok(()),
        }
    };
}

#[cfg(test)]
mod tests {

    proptest! {
        #[test]
        fn ranges_respected(x in -2.0..3.0f64, k in 1u64..10, n in 2usize..5) {
            prop_assert!((-2.0..3.0).contains(&x));
            prop_assert!((1..10).contains(&k));
            prop_assert!((2..5).contains(&n));
        }

        #[test]
        fn vec_and_map_compose(v in crate::collection::vec(0.0..1.0f64, 7)) {
            prop_assert_eq!(v.len(), 7);
            for &x in &v {
                prop_assert!((0.0..1.0).contains(&x), "out of range: {}", x);
            }
        }

        #[test]
        fn assume_skips(x in 0.0..1.0f64) {
            prop_assume!(x < 0.5);
            prop_assert!(x < 0.5);
        }
    }

    #[test]
    fn macro_generated_tests_run() {
        ranges_respected();
        vec_and_map_compose();
        assume_skips();
    }

    #[test]
    fn prop_map_transforms() {
        use crate::strategy::Strategy;
        let strat = (1.0..2.0f64).prop_map(|x| x * 10.0);
        let mut rng = crate::test_runner::TestRng::for_test("prop_map_transforms");
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((10.0..20.0).contains(&v));
        }
    }

    #[test]
    fn failures_panic_with_inputs() {
        proptest! {
            fn always_fails(x in 0.0..1.0f64) {
                prop_assert!(x < 0.0, "x was {}", x);
            }
        }
        let err = std::panic::catch_unwind(always_fails).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("panic message");
        assert!(msg.contains("always_fails"), "got: {msg}");
        assert!(msg.contains("inputs"), "got: {msg}");
    }
}
