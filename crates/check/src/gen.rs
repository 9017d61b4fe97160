//! Plain-function case generators.
//!
//! Where proptest composes strategy values, this harness composes ordinary
//! functions of `&mut StdRng`. These helpers cover the shapes the
//! workspace's property tests draw: bounded scalars, vectors, sets, and
//! ASCII strings.

use cca_rand::distr::SampleRange;
use cca_rand::rngs::StdRng;
use cca_rand::Rng;
use std::collections::{BTreeSet, HashSet};
use std::hash::Hash;
use std::ops::Range;

/// Draws one value from any numeric range (`0..10`, `-4..=8`, `0.0..1.0`).
pub fn int<T, R: SampleRange<T>>(rng: &mut StdRng, range: R) -> T {
    rng.random_range(range)
}

/// Generates a vector whose length is drawn from `len`, elements from
/// `element`.
pub fn vec<T>(
    rng: &mut StdRng,
    len: Range<usize>,
    mut element: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let n = rng.random_range(len);
    (0..n).map(|_| element(rng)).collect()
}

/// Generates a `HashSet` with *target* size drawn from `len`. If the
/// element domain is too small to reach the target, the set is returned
/// smaller after a bounded number of draws (it always reaches `len.start`
/// elements when the domain allows).
pub fn hash_set<T: Eq + Hash>(
    rng: &mut StdRng,
    len: Range<usize>,
    mut element: impl FnMut(&mut StdRng) -> T,
) -> HashSet<T> {
    let target = rng.random_range(len);
    let mut out = HashSet::with_capacity(target);
    let mut attempts = 0usize;
    while out.len() < target && attempts < 10 * (target + 1) {
        out.insert(element(rng));
        attempts += 1;
    }
    out
}

/// [`hash_set`] with ordered output.
pub fn btree_set<T: Ord>(
    rng: &mut StdRng,
    len: Range<usize>,
    mut element: impl FnMut(&mut StdRng) -> T,
) -> BTreeSet<T> {
    let target = rng.random_range(len);
    let mut out = BTreeSet::new();
    let mut attempts = 0usize;
    while out.len() < target && attempts < 10 * (target + 1) {
        out.insert(element(rng));
        attempts += 1;
    }
    out
}

/// Generates arbitrary bytes with length drawn from `len`.
pub fn bytes(rng: &mut StdRng, len: Range<usize>) -> Vec<u8> {
    vec(rng, len, |r| r.random::<u8>())
}

/// Generates a printable-ASCII string (space through `~`) with length
/// drawn from `len` — the same value domain the old `".{a,b}"` proptest
/// regexes exercised, minus exotic Unicode.
pub fn ascii_string(rng: &mut StdRng, len: Range<usize>) -> String {
    let n = rng.random_range(len);
    (0..n)
        .map(|_| char::from(rng.random_range(0x20u8..0x7F)))
        .collect()
}

/// Corrupts a valid text the way malformed-input batteries need: one to
/// four edits, each a truncation, a flip of one byte, or an insertion of
/// one of `inserts` at a random byte offset. The result need not be
/// UTF-8.
///
/// # Panics
///
/// Panics if `inserts` is empty.
pub fn mutate(rng: &mut StdRng, text: &[u8], inserts: &[&str]) -> Vec<u8> {
    let mut out = text.to_vec();
    for _ in 0..rng.random_range(1..=4) {
        let at = rng.random_range(0..=out.len());
        match rng.random_range(0u8..5) {
            0 => out.truncate(at),
            1 | 2 if at < out.len() => out[at] ^= rng.random_range(1..=u8::MAX),
            _ => {
                let token = inserts[rng.random_range(0..inserts.len())];
                out.splice(at..at, token.bytes());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_rand::SeedableRng;

    #[test]
    fn mutate_is_seeded_and_bounded() {
        let text = b"# header\nkey\t1\n";
        for seed in 0..200 {
            let a = mutate(&mut StdRng::seed_from_u64(seed), text, &["\t", "-1"]);
            let b = mutate(&mut StdRng::seed_from_u64(seed), text, &["\t", "-1"]);
            assert_eq!(a, b, "seed {seed}");
            assert!(a.len() <= text.len() + 4 * 2, "seed {seed}: {a:?}");
        }
    }

    #[test]
    fn vec_respects_length_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = vec(&mut rng, 2..7, |r| r.random::<u64>());
            assert!((2..7).contains(&v.len()));
        }
    }

    #[test]
    fn sets_reach_target_when_domain_allows() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let s = hash_set(&mut rng, 3..6, |r| r.random_range(0u32..1000));
            assert!((3..6).contains(&s.len()));
            let b = btree_set(&mut rng, 1..5, |r| r.random_range(0u64..100));
            assert!((1..5).contains(&b.len()));
        }
    }

    #[test]
    fn small_domain_set_degrades_gracefully() {
        let mut rng = StdRng::seed_from_u64(3);
        // Only 2 possible elements but target up to 9: must terminate.
        let s = hash_set(&mut rng, 8..10, |r| r.random_range(0u8..2));
        assert!(s.len() <= 2);
    }

    #[test]
    fn ascii_string_is_printable() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let s = ascii_string(&mut rng, 0..40);
            assert!(s.len() < 40);
            assert!(s.chars().all(|c| (' '..='~').contains(&c)));
        }
    }
}
