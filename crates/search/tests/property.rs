//! Property-based tests for the search substrate: posting-list algebra,
//! communication accounting, and placement sensitivity.

use cca_check::{gen, prop_assert, prop_assert_eq, Checker};
use cca_hash::PageId;
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;
use cca_search::{AggregationPolicy, Cluster, InvertedIndex, QueryEngine, StopwordList};
use cca_trace::{Corpus, Query, QueryLog, TraceConfig, Vocabulary};
use std::collections::BTreeSet;

const REGRESSIONS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/property.regressions");

fn pages(raw: &BTreeSet<u64>) -> Vec<PageId> {
    raw.iter().map(|&x| PageId(x)).collect()
}

/// Posting-list intersection and union agree with set semantics.
#[test]
fn set_algebra() {
    Checker::new("set_algebra")
        .cases(200)
        .regressions(REGRESSIONS)
        .run(
            |rng| {
                (
                    gen::btree_set(rng, 0..40, |r| gen::int(r, 0u64..100)),
                    gen::btree_set(rng, 0..40, |r| gen::int(r, 0u64..100)),
                )
            },
            |(a, b)| {
                let (pa, pb) = (pages(a), pages(b));
                let want_and: Vec<PageId> = a.intersection(b).map(|&x| PageId(x)).collect();
                let want_or: Vec<PageId> = a.union(b).map(|&x| PageId(x)).collect();
                prop_assert_eq!(InvertedIndex::intersect(&pa, &pb), want_and);
                prop_assert_eq!(InvertedIndex::union(&pa, &pb), want_or);
                Ok(())
            },
        );
}

/// Intersection is commutative and bounded by either input.
#[test]
fn intersection_commutative() {
    Checker::new("intersection_commutative")
        .cases(200)
        .regressions(REGRESSIONS)
        .run(
            |rng| {
                (
                    gen::btree_set(rng, 0..30, |r| gen::int(r, 0u64..60)),
                    gen::btree_set(rng, 0..30, |r| gen::int(r, 0u64..60)),
                )
            },
            |(a, b)| {
                let (pa, pb) = (pages(a), pages(b));
                let ab = InvertedIndex::intersect(&pa, &pb);
                let ba = InvertedIndex::intersect(&pb, &pa);
                prop_assert_eq!(&ab, &ba);
                prop_assert!(ab.len() <= pa.len().min(pb.len()));
                Ok(())
            },
        );
}

struct Fixture {
    index: InvertedIndex,
    vocab: Vocabulary,
    log: QueryLog,
}

fn fixture(seed: u64) -> Fixture {
    let cfg = TraceConfig::tiny();
    let mut rng = StdRng::seed_from_u64(seed);
    let vocab = Vocabulary::generate(&cfg, &mut rng);
    let corpus = Corpus::generate(&cfg, &vocab, &mut rng);
    let index = InvertedIndex::build(&corpus, &vocab, &StopwordList::smart());
    let model = cca_trace::QueryModel::generate(&cfg, &vocab, &mut rng);
    let log = model.sample_log(500, &mut rng);
    Fixture { index, vocab, log }
}

/// Query results (pages) must be identical under every placement; only the
/// communication differs.
#[test]
fn results_are_placement_invariant() {
    let f = fixture(5);
    let make_cluster = |modulus: usize| {
        let assignment: Vec<usize> = (0..f.vocab.len()).map(|w| w % modulus).collect();
        Cluster::with_assignment(modulus, &f.index, &assignment)
    };
    let c1 = make_cluster(1);
    let c4 = make_cluster(4);
    let e1 = QueryEngine::new(&f.index, &c1, AggregationPolicy::Intersection);
    let e4 = QueryEngine::new(&f.index, &c4, AggregationPolicy::Intersection);
    for q in f.log.iter().take(200) {
        let r1 = e1.execute(q);
        let r4 = e4.execute(q);
        assert_eq!(r1.pages, r4.pages, "pages differ for {q:?}");
        assert_eq!(r1.comm_bytes, 0, "single node must be free");
    }
}

/// Intersection results equal the naive set intersection of posting lists.
#[test]
fn engine_matches_naive_intersection() {
    let f = fixture(6);
    let assignment: Vec<usize> = (0..f.vocab.len()).map(|w| w % 3).collect();
    let cluster = Cluster::with_assignment(3, &f.index, &assignment);
    let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Intersection);
    for q in f.log.iter().take(300) {
        let got = engine.execute(q).pages;
        let want = f.index.intersect_keywords(&q.words);
        assert_eq!(got, want, "query {q:?}");
    }
}

/// Union semantics: the result is the union of all posting lists and the
/// bytes equal the sizes of all non-host keywords.
#[test]
fn union_costs_add_up() {
    let f = fixture(7);
    let assignment: Vec<usize> = (0..f.vocab.len()).map(|w| w % 2).collect();
    let cluster = Cluster::with_assignment(2, &f.index, &assignment);
    let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Union);
    for q in f.log.iter().take(200) {
        if q.words.is_empty() {
            continue;
        }
        let r = engine.execute(q);
        let host_word = *q
            .words
            .iter()
            .max_by_key(|&&w| (f.index.posting(w).len(), w))
            .unwrap();
        let host = cluster.node_of(host_word).unwrap_or(0);
        let want_bytes: u64 = q
            .words
            .iter()
            .filter(|&&w| cluster.node_of(w).unwrap_or(0) != host)
            .map(|&w| f.index.size_bytes(w))
            .sum();
        assert_eq!(r.comm_bytes, want_bytes);
        // Union result contains every keyword's postings.
        for &w in &q.words {
            for p in f.index.posting(w) {
                assert!(r.pages.binary_search(p).is_ok());
            }
        }
    }
}

/// Replay statistics are consistent: totals equal the per-query sums.
#[test]
fn replay_totals_are_sums() {
    let f = fixture(8);
    let assignment: Vec<usize> = (0..f.vocab.len()).map(|w| (w * 7) % 5).collect();
    let cluster = Cluster::with_assignment(5, &f.index, &assignment);
    let engine = QueryEngine::new(&f.index, &cluster, AggregationPolicy::Intersection);
    let stats = engine.replay(&f.log);
    let mut total = 0u64;
    let mut local = 0u64;
    let mut multi = 0u64;
    for q in f.log.iter() {
        let r = engine.execute(q);
        total += r.comm_bytes;
        if r.comm_bytes == 0 {
            local += 1;
        }
        if q.len() > 1 {
            multi += 1;
        }
    }
    assert_eq!(stats.total_bytes, total);
    assert_eq!(stats.local_queries, local);
    assert_eq!(stats.multi_keyword_queries, multi);
    assert_eq!(stats.num_queries, f.log.len() as u64);
}

/// Co-locating a query's keywords can only reduce that query's bytes.
#[test]
fn colocating_never_hurts_single_query() {
    let f = fixture(9);
    // Pick a multi-keyword query whose words are indexed.
    let q: &Query = f
        .log
        .iter()
        .find(|q| q.len() >= 2 && q.words.iter().all(|&w| !f.index.posting(w).is_empty()))
        .expect("a multi-keyword indexed query exists");
    let spread: Vec<usize> = (0..f.vocab.len()).map(|w| w % 4).collect();
    let mut together = spread.clone();
    for &w in &q.words {
        together[w.index()] = 0;
    }
    let c_spread = Cluster::with_assignment(4, &f.index, &spread);
    let c_together = Cluster::with_assignment(4, &f.index, &together);
    let b_spread = QueryEngine::new(&f.index, &c_spread, AggregationPolicy::Intersection)
        .execute(q)
        .comm_bytes;
    let b_together = QueryEngine::new(&f.index, &c_together, AggregationPolicy::Intersection)
        .execute(q)
        .comm_bytes;
    assert_eq!(b_together, 0);
    assert!(b_spread >= b_together);
}
