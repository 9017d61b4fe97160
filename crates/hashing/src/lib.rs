//! Hashing substrate for the CCA reproduction.
//!
//! The paper's evaluation identifies web pages by "an 8-byte page ID (the
//! MD5 digest of the corresponding page URL)" and its random baseline places
//! each keyword index "at a node based on its MD5 hash code … divide the
//! hash code by the number of nodes and use the remainder as the ID of the
//! placed node" (§4.1). This crate provides that machinery from scratch:
//!
//! * [`md5::Md5`] — an RFC 1321 MD5 implementation (streaming), and
//!   [`md5::digest_many`], which hashes a batch of messages four at a
//!   time.
//! * [`PageId`] — the 8-byte truncated digest used as a document identifier.
//! * [`hash_placement`] — the random hash-based node assignment, and
//!   [`hash_placement_many`], the same assignment for a batch of keys.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod md5;

use std::fmt;

/// 8-byte page identifier: the first 8 bytes of the MD5 digest of the page
/// URL, as in the paper's inverted-index items.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PageId(pub u64);

impl PageId {
    /// Derives the page ID for a URL (or any identifying byte string).
    ///
    /// ```
    /// use cca_hash::PageId;
    /// let a = PageId::from_url("http://example.com/a");
    /// let b = PageId::from_url("http://example.com/b");
    /// assert_ne!(a, b);
    /// ```
    #[must_use]
    pub fn from_url(url: &str) -> Self {
        let digest = md5::digest(url.as_bytes());
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&digest[..8]);
        PageId(u64::from_be_bytes(bytes))
    }

    /// Size of the on-wire representation in bytes (fixed, per the paper).
    pub const WIRE_SIZE: usize = 8;
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Random hash-based placement: maps a key (e.g. a keyword) to one of
/// `num_nodes` nodes via its MD5 digest, exactly as the paper's baseline.
///
/// # Panics
///
/// Panics if `num_nodes` is zero.
///
/// ```
/// use cca_hash::hash_placement;
/// let node = hash_placement("software", 10);
/// assert!(node < 10);
/// // Deterministic:
/// assert_eq!(node, hash_placement("software", 10));
/// ```
#[must_use]
pub fn hash_placement(key: &str, num_nodes: usize) -> usize {
    assert!(num_nodes > 0, "num_nodes must be positive");
    node_of(&md5::digest(key.as_bytes()), num_nodes)
}

/// [`hash_placement`] of every key, hashed in one [`md5::digest_many`]
/// call.
///
/// # Panics
///
/// Panics if `num_nodes` is zero.
///
/// ```
/// use cca_hash::{hash_placement, hash_placement_many};
/// let keys = ["car", "dealer", "software"];
/// assert_eq!(
///     hash_placement_many(&keys, 10),
///     keys.map(|k| hash_placement(k, 10))
/// );
/// ```
#[must_use]
pub fn hash_placement_many(keys: &[&str], num_nodes: usize) -> Vec<usize> {
    assert!(num_nodes > 0, "num_nodes must be positive");
    let messages: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
    md5::digest_many(&messages)
        .iter()
        .map(|digest| node_of(digest, num_nodes))
        .collect()
}

/// The node of a key with MD5 `digest`: the full 128-bit digest modulo
/// the node count, mirroring "divide the hash code by the number of
/// nodes and use the remainder".
fn node_of(digest: &[u8; 16], num_nodes: usize) -> usize {
    (u128::from_be_bytes(*digest) % num_nodes as u128) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn page_ids_are_stable_and_distinct() {
        let a = PageId::from_url("http://example.com/a");
        assert_eq!(a, PageId::from_url("http://example.com/a"));
        assert_ne!(a, PageId::from_url("http://example.com/b"));
    }

    #[test]
    fn page_id_display_is_16_hex_digits() {
        let a = PageId::from_url("x");
        assert_eq!(a.to_string().len(), 16);
    }

    #[test]
    fn hash_placement_in_range_and_deterministic() {
        for n in [1usize, 2, 7, 10, 100] {
            for key in ["car", "dealer", "software", "download", ""] {
                let p = hash_placement(key, n);
                assert!(p < n);
                assert_eq!(p, hash_placement(key, n));
            }
        }
    }

    #[test]
    fn hash_placement_is_roughly_uniform() {
        let n = 10;
        let mut counts: HashMap<usize, usize> = HashMap::new();
        for i in 0..10_000 {
            *counts
                .entry(hash_placement(&format!("key{i}"), n))
                .or_default() += 1;
        }
        for node in 0..n {
            let c = counts.get(&node).copied().unwrap_or(0);
            // Expected 1000 per node; allow generous slack.
            assert!((700..1300).contains(&c), "node {node} got {c}");
        }
    }

    #[test]
    #[should_panic(expected = "num_nodes must be positive")]
    fn zero_nodes_panics() {
        let _ = hash_placement("k", 0);
    }

    #[test]
    #[should_panic(expected = "num_nodes must be positive")]
    fn zero_nodes_panics_for_a_batch() {
        let _ = hash_placement_many(&[], 0);
    }
}
