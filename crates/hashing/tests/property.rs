//! Property-based tests for the MD5 implementation and hash placement.

use cca_check::{gen, prop_assert, prop_assert_eq, prop_assert_ne, Checker};
use cca_hash::md5::{digest, Md5};
use cca_hash::{hash_placement, hash_placement_many, PageId};

const REGRESSIONS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/property.regressions");

/// Streaming in arbitrary chunkings equals the one-shot digest.
#[test]
fn streaming_equals_one_shot() {
    Checker::new("streaming_equals_one_shot")
        .cases(300)
        .regressions(REGRESSIONS)
        .run(
            |rng| (gen::bytes(rng, 0..600), gen::int(rng, 1usize..97)),
            |(data, chunk)| {
                let chunk = (*chunk).max(1); // shrinking may drive chunk to 0
                let whole = digest(data);
                let mut h = Md5::new();
                for part in data.chunks(chunk) {
                    h.update(part);
                }
                prop_assert_eq!(h.finalize(), whole);
                Ok(())
            },
        );
}

/// Digesting is a pure function.
#[test]
fn digest_is_deterministic() {
    Checker::new("digest_is_deterministic")
        .cases(300)
        .regressions(REGRESSIONS)
        .run(
            |rng| gen::bytes(rng, 0..256),
            |data| {
                prop_assert_eq!(digest(data), digest(data));
                Ok(())
            },
        );
}

/// Any single-bit flip changes the digest (collision resistance is not
/// claimed, but avalanche on small inputs is a good implementation
/// smoke test).
#[test]
fn single_bit_flip_changes_digest() {
    Checker::new("single_bit_flip_changes_digest")
        .cases(300)
        .regressions(REGRESSIONS)
        .run(
            |rng| {
                (
                    gen::bytes(rng, 1..128),
                    gen::int(rng, 0usize..128),
                    gen::int(rng, 0u8..8),
                )
            },
            |(data, byte_idx, bit)| {
                if data.is_empty() {
                    return Ok(()); // shrinking may empty the buffer
                }
                let mut flipped = data.clone();
                let i = byte_idx % flipped.len();
                flipped[i] ^= 1 << (bit % 8);
                prop_assert_ne!(digest(data), digest(&flipped));
                Ok(())
            },
        );
}

/// Placement stays in range and is deterministic for any key.
#[test]
fn placement_in_range() {
    Checker::new("placement_in_range")
        .cases(300)
        .regressions(REGRESSIONS)
        .run(
            |rng| (gen::ascii_string(rng, 0..41), gen::int(rng, 1usize..200)),
            |(key, nodes)| {
                let nodes = (*nodes).max(1); // shrinking may drive nodes to 0
                let p = hash_placement(key, nodes);
                prop_assert!(p < nodes);
                prop_assert_eq!(p, hash_placement(key, nodes));
                Ok(())
            },
        );
}

/// The batched placement equals the one-key placement of every key.
#[test]
fn batched_placement_equals_per_key() {
    Checker::new("batched_placement_equals_per_key")
        .cases(300)
        .regressions(REGRESSIONS)
        .run(
            |rng| {
                (
                    gen::vec(rng, 0..40, |r| gen::ascii_string(r, 0..80)),
                    gen::int(rng, 1usize..=1000),
                )
            },
            |(keys, nodes)| {
                let nodes = (*nodes).max(1); // shrinking may drive nodes to 0
                let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
                let per_key: Vec<usize> = keys.iter().map(|k| hash_placement(k, nodes)).collect();
                prop_assert_eq!(hash_placement_many(&keys, nodes), per_key);
                Ok(())
            },
        );
}

/// Page ids of distinct URLs essentially never collide on small sets.
#[test]
fn page_ids_injective_on_small_sets() {
    Checker::new("page_ids_injective_on_small_sets")
        .cases(300)
        .regressions(REGRESSIONS)
        .run(
            |rng| gen::hash_set(rng, 2..20, |r| gen::ascii_string(r, 1..25)),
            |urls| {
                let ids: std::collections::HashSet<_> =
                    urls.iter().map(|u| PageId::from_url(u)).collect();
                prop_assert_eq!(ids.len(), urls.len());
                Ok(())
            },
        );
}

/// Chi-square-style balance check: hashing many keys over n nodes puts
/// close to 1/n mass on each node.
#[test]
fn hash_placement_balance() {
    for nodes in [2usize, 10, 37] {
        let mut counts = vec![0usize; nodes];
        let total = 20_000;
        for i in 0..total {
            counts[hash_placement(&format!("object-{i}"), nodes)] += 1;
        }
        let expected = total as f64 / nodes as f64;
        for (node, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.15,
                "node {node}/{nodes}: count {c}, expected {expected}"
            );
        }
    }
}
