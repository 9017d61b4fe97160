//! Minimal first-party property-testing harness.
//!
//! A deliberately small replacement for the slice of `proptest` this
//! workspace used: seeded random case generation, bounded greedy shrinking,
//! and persisted regression seeds — with zero external dependencies, so
//! tier-1 tests run on a machine that has never seen crates.io.
//!
//! # Model
//!
//! A property test is a triple *(generator, shrinker, property)*:
//!
//! * the **generator** is any `Fn(&mut StdRng) -> T` — plain code, no
//!   strategy combinators; [`gen`] has helpers for vectors, sets and
//!   strings;
//! * the **shrinker** is the [`Shrink`] trait (implemented for primitives,
//!   tuples, `Vec`, `String`; write your own for structured cases and keep
//!   generator invariants intact);
//! * the **property** returns `Result<(), String>`; the
//!   [`prop_assert!`]-family macros early-return failure messages, and
//!   panics inside the property are caught and treated as failures.
//!
//! Each case draws from an [`StdRng`] seeded with a per-case seed derived
//! from the run seed (override with `CCA_CHECK_SEED`), so any failure
//! reproduces from its printed seed alone. When a [`Checker`] is given a
//! regressions file, seeds recorded there are replayed **before** fresh
//! cases — the same discipline as proptest's `.proptest-regressions` — and
//! new failures are appended to it automatically.
//!
//! ```
//! use cca_check::{gen, prop_assert, Checker, Shrink};
//!
//! Checker::new("reverse_is_involutive").cases(64).run(
//!     |rng| gen::vec(rng, 0..20, |r| gen::int(r, -100..=100)),
//!     |v: &Vec<i32>| {
//!         let mut w = v.clone();
//!         w.reverse();
//!         w.reverse();
//!         prop_assert!(w == *v, "double reverse changed {v:?}");
//!         Ok(())
//!     },
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
mod shrink;

pub use shrink::Shrink;

pub use cca_rand::rngs::StdRng;
pub use cca_rand::{Rng, SeedableRng, SplitMix64};

use std::fmt::Debug;
use std::fs;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Default number of fresh cases per property.
pub const DEFAULT_CASES: u32 = 100;

/// Default bound on total shrink attempts after a failure.
pub const DEFAULT_MAX_SHRINK_STEPS: u32 = 2048;

/// Configuration and driver for one property.
#[derive(Debug, Clone)]
pub struct Checker {
    name: String,
    cases: u32,
    max_shrink_steps: u32,
    seed: u64,
    regressions: Option<PathBuf>,
}

impl Checker {
    /// Creates a checker for the named property. The name scopes regression
    /// seeds and appears in failure reports; use the test function's name.
    #[must_use]
    pub fn new(name: &str) -> Self {
        let seed = std::env::var("CCA_CHECK_SEED")
            .ok()
            .and_then(|s| parse_seed(&s))
            .unwrap_or(0xCCA_5EED);
        Checker {
            name: name.to_string(),
            cases: DEFAULT_CASES,
            max_shrink_steps: DEFAULT_MAX_SHRINK_STEPS,
            seed,
            regressions: None,
        }
    }

    /// Sets the number of fresh cases to run (default [`DEFAULT_CASES`]).
    #[must_use]
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases;
        self
    }

    /// Bounds the total number of shrink candidates evaluated after a
    /// failure (default [`DEFAULT_MAX_SHRINK_STEPS`]).
    #[must_use]
    pub fn max_shrink_steps(mut self, steps: u32) -> Self {
        self.max_shrink_steps = steps;
        self
    }

    /// Overrides the run seed (normally taken from `CCA_CHECK_SEED` or the
    /// built-in default).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attaches a regression-seed file: seeds recorded under this
    /// property's name are replayed before fresh cases, and new failing
    /// seeds are appended. Check the file into source control.
    #[must_use]
    pub fn regressions(mut self, path: impl Into<PathBuf>) -> Self {
        self.regressions = Some(path.into());
        self
    }

    /// Runs the property: persisted regression seeds first, then `cases`
    /// fresh cases. On failure, shrinks the case (bounded), records the
    /// seed, and panics with a replayable report.
    ///
    /// # Panics
    ///
    /// Panics if any case fails the property (that is the point).
    pub fn run<T, G, P>(&self, generate: G, property: P)
    where
        T: Debug + Clone + Shrink,
        G: Fn(&mut StdRng) -> T,
        P: Fn(&T) -> Result<(), String>,
    {
        for seed in self.persisted_seeds() {
            self.run_case(seed, true, &generate, &property);
        }
        // Mix the property name into the stream so sibling properties in
        // one test binary explore different cases for the same run seed.
        let mut seeds = SplitMix64::new(self.seed ^ fnv1a(self.name.as_bytes()));
        for _ in 0..self.cases {
            self.run_case(seeds.next_u64(), false, &generate, &property);
        }
    }

    fn run_case<T, G, P>(&self, case_seed: u64, replayed: bool, generate: &G, property: &P)
    where
        T: Debug + Clone + Shrink,
        G: Fn(&mut StdRng) -> T,
        P: Fn(&T) -> Result<(), String>,
    {
        let case = generate(&mut StdRng::seed_from_u64(case_seed));
        let Err(error) = run_protected(property, &case) else {
            return;
        };
        let (minimal, error, steps) = self.shrink_failure(case, error, property);
        if !replayed {
            self.persist_seed(case_seed);
        }
        panic!(
            "property '{name}' falsified{origin}\n\
             case seed: 0x{case_seed:016x}  (run seed 0x{run_seed:x}; \
             set CCA_CHECK_SEED to reproduce a whole run)\n\
             minimal case after {steps} shrink steps:\n{minimal:#?}\n{error}",
            name = self.name,
            origin = if replayed {
                " by a persisted regression seed"
            } else {
                ""
            },
            run_seed = self.seed,
        );
    }

    /// Greedy descent: repeatedly move to the first shrink candidate that
    /// still fails, up to the step budget.
    fn shrink_failure<T, P>(&self, case: T, error: String, property: &P) -> (T, String, u32)
    where
        T: Debug + Clone + Shrink,
        P: Fn(&T) -> Result<(), String>,
    {
        let mut current = case;
        let mut current_error = error;
        let mut steps = 0u32;
        'descend: while steps < self.max_shrink_steps {
            for candidate in current.shrink() {
                steps += 1;
                if let Err(e) = run_protected(property, &candidate) {
                    current = candidate;
                    current_error = e;
                    continue 'descend;
                }
                if steps >= self.max_shrink_steps {
                    break 'descend;
                }
            }
            break; // local minimum: every shrink of `current` passes
        }
        (current, current_error, steps)
    }

    fn persisted_seeds(&self) -> Vec<u64> {
        let Some(path) = &self.regressions else {
            return Vec::new();
        };
        let Ok(text) = fs::read_to_string(path) else {
            return Vec::new();
        };
        text.lines()
            .filter_map(|line| {
                let line = line.trim();
                let (name, seed) = line.split_once(char::is_whitespace)?;
                (name == self.name)
                    .then(|| parse_seed(seed.trim()))
                    .flatten()
            })
            .collect()
    }

    fn persist_seed(&self, seed: u64) {
        let Some(path) = &self.regressions else {
            return;
        };
        if self.persisted_seeds().contains(&seed) {
            return;
        }
        // Best effort: failing to record must not mask the real failure.
        let header_needed = !path.exists();
        let Ok(mut file) = fs::OpenOptions::new().create(true).append(true).open(path) else {
            return;
        };
        if header_needed {
            let _ = writeln!(
                file,
                "# cca-check regression seeds: `<property-name> <case-seed>` per line.\n\
                 # Replayed before fresh cases; check this file in to source control."
            );
        }
        let _ = writeln!(file, "{} 0x{seed:016x}", self.name);
    }
}

/// Runs the property, converting panics into failures so shrinking can
/// cross panicking candidates.
fn run_protected<T, P>(property: &P, case: &T) -> Result<(), String>
where
    P: Fn(&T) -> Result<(), String>,
{
    match catch_unwind(AssertUnwindSafe(|| property(case))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            Err(format!("property panicked: {msg}"))
        }
    }
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x1_0000_0000_01B3);
    }
    hash
}

/// Asserts a condition inside a property, early-returning a failure
/// message instead of panicking (failures then shrink cleanly).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!(
                "assertion failed at {}:{}: {}",
                file!(),
                line!(),
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed at {}:{}: {}",
                file!(),
                line!(),
                format!($($fmt)+)
            ));
        }
    };
}

/// [`prop_assert!`] for equality, printing both sides on failure.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{l:?} != {r:?}");
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "{l:?} != {r:?}: {}", format!($($fmt)+));
    }};
}

/// [`prop_assert!`] for inequality, printing the offending value.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "both sides equal {l:?}");
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "both sides equal {l:?}: {}", format!($($fmt)+));
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let mut count = 0u32;
        let counter = std::cell::Cell::new(0u32);
        Checker::new("tautology").cases(37).run(
            |rng| rng.random_range(0..100u64),
            |_| {
                counter.set(counter.get() + 1);
                Ok(())
            },
        );
        count += counter.get();
        assert_eq!(count, 37);
    }

    #[test]
    fn failing_property_shrinks_to_minimum() {
        // Property "v < 10" over 0..1000 must shrink to exactly 10.
        let result = catch_unwind(AssertUnwindSafe(|| {
            Checker::new("bounded").cases(200).run(
                |rng| rng.random_range(0..1000u64),
                |&v| {
                    prop_assert!(v < 10, "v = {v}");
                    Ok(())
                },
            );
        }));
        let msg = match result {
            Err(p) => *p.downcast::<String>().expect("string payload"),
            Ok(()) => panic!("property should have been falsified"),
        };
        assert!(msg.contains("minimal case"), "{msg}");
        assert!(msg.contains("\n10"), "did not shrink to 10: {msg}");
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            Checker::new("panicky").cases(50).run(
                |rng| gen::vec(rng, 0..20, |r| r.random_range(0..5u8)),
                |v: &Vec<u8>| {
                    assert!(v.len() < 12, "too long");
                    Ok(())
                },
            );
        }));
        let msg = match result {
            Err(p) => *p.downcast::<String>().expect("string payload"),
            Ok(()) => panic!("property should have been falsified"),
        };
        assert!(msg.contains("property panicked"), "{msg}");
    }

    #[test]
    fn identical_seeds_replay_identical_cases() {
        let record = |seed: u64| {
            let out = std::cell::RefCell::new(Vec::new());
            Checker::new("replay").seed(seed).cases(10).run(
                |rng| rng.random_range(0..1_000_000u64),
                |&v| {
                    out.borrow_mut().push(v);
                    Ok(())
                },
            );
            out.into_inner()
        };
        assert_eq!(record(1), record(1));
        assert_ne!(record(1), record(2));
    }

    #[test]
    fn regression_seeds_round_trip() {
        let dir = std::env::temp_dir().join("cca-check-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("regressions-{}", std::process::id()));
        let _ = fs::remove_file(&path);

        // First run fails and records the seed.
        let checker = || Checker::new("persisted").cases(20).regressions(&path);
        let failed = catch_unwind(AssertUnwindSafe(|| {
            checker().run(
                |rng| rng.random_range(0..100u64),
                |&v| {
                    prop_assert!(v < 1, "v = {v}");
                    Ok(())
                },
            );
        }));
        assert!(failed.is_err());
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("persisted 0x"), "{text}");

        // Replay reports the persisted origin even with zero fresh cases.
        let replayed = catch_unwind(AssertUnwindSafe(|| {
            checker().cases(0).run(
                |rng| rng.random_range(0..100u64),
                |&v| {
                    prop_assert!(v < 1, "v = {v}");
                    Ok(())
                },
            );
        }));
        let msg = match replayed {
            Err(p) => *p.downcast::<String>().expect("string payload"),
            Ok(()) => panic!("persisted seed should have replayed the failure"),
        };
        assert!(msg.contains("persisted regression seed"), "{msg}");

        // A fixed property leaves the file untouched and passes.
        checker().run(|rng| rng.random_range(0..100u64), |_| Ok(()));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn seed_parsing_accepts_hex_and_decimal() {
        assert_eq!(parse_seed("0x10"), Some(16));
        assert_eq!(parse_seed("16"), Some(16));
        assert_eq!(parse_seed("zzz"), None);
    }
}
