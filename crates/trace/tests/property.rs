//! Property-based tests for the workload generator and trace statistics.

use cca_check::{gen, prop_assert, prop_assert_eq, Checker, StdRng};
use cca_rand::SeedableRng;
use cca_trace::stats::dominance_curves;
use cca_trace::{PairKey, PairStats, Query, QueryLog, TraceConfig, Vocabulary, WordId, Workload};

const REGRESSIONS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/property.regressions");

/// Draws 1..120 queries of 1..5 distinct words over a 60-word universe —
/// the raw material for [`log_of`]. Kept as plain vectors so the harness
/// can shrink them structurally.
fn arbitrary_queries(rng: &mut StdRng) -> Vec<Vec<u32>> {
    gen::vec(rng, 1..120, |r| {
        gen::hash_set(r, 1..5, |r2| gen::int(r2, 0u32..60))
            .into_iter()
            .collect()
    })
}

/// Builds the [`QueryLog`] a raw case describes. Total on every shrink of
/// [`arbitrary_queries`] output: words are deduplicated and empty queries
/// dropped, so shrunk cases keep the generator's invariants.
fn log_of(raw: &[Vec<u32>]) -> QueryLog {
    QueryLog {
        queries: raw
            .iter()
            .filter(|words| !words.is_empty())
            .map(|words| {
                let mut words: Vec<u32> = words.clone();
                words.sort_unstable();
                words.dedup();
                Query {
                    words: words.into_iter().map(WordId).collect(),
                }
            })
            .collect(),
        universe: 60,
    }
}

/// Correlations are probabilities and symmetric in the pair key.
#[test]
fn correlations_are_probabilities() {
    Checker::new("correlations_are_probabilities")
        .cases(120)
        .regressions(REGRESSIONS)
        .run(arbitrary_queries, |raw| {
            let log = log_of(raw);
            if log.is_empty() {
                return Ok(());
            }
            let stats = PairStats::from_log(&log);
            for (pair, r) in stats.iter() {
                prop_assert!(r > 0.0 && r <= 1.0, "r = {r}");
                prop_assert_eq!(r, stats.correlation(pair));
                prop_assert_eq!(r, stats.correlation(PairKey::new(pair.1, pair.0)));
            }
            Ok(())
        });
}

/// Top pairs are sorted descending and bounded by the pair count.
#[test]
fn top_pairs_sorted() {
    Checker::new("top_pairs_sorted")
        .cases(120)
        .regressions(REGRESSIONS)
        .run(
            |rng| (arbitrary_queries(rng), gen::int(rng, 1usize..50)),
            |(raw, k)| {
                let k = *k;
                let log = log_of(raw);
                if log.is_empty() {
                    return Ok(());
                }
                let stats = PairStats::from_log(&log);
                let top = stats.top_pairs(k);
                prop_assert!(top.len() <= k.min(stats.num_pairs()));
                prop_assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
                Ok(())
            },
        );
}

/// The two-smallest adjustment counts exactly one pair per multi-word
/// query, so its total mass never exceeds the all-pairs mass.
#[test]
fn two_smallest_counts_one_pair_per_query() {
    Checker::new("two_smallest_counts_one_pair_per_query")
        .cases(120)
        .regressions(REGRESSIONS)
        .run(arbitrary_queries, |raw| {
            let log = log_of(raw);
            if log.is_empty() {
                return Ok(());
            }
            let all = PairStats::from_log(&log);
            let two = PairStats::from_log_two_smallest(&log, |w| u64::from(w.0) + 1);
            let mass = |s: &PairStats| s.iter().map(|(_, r)| r).sum::<f64>();
            prop_assert!(mass(&two) <= mass(&all) + 1e-12);
            let multi = log.iter().filter(|q| q.len() >= 2).count() as f64;
            let expected = multi / log.len() as f64;
            prop_assert!(
                (mass(&two) - expected).abs() < 1e-9,
                "two-smallest mass {} vs multiword fraction {}",
                mass(&two),
                expected
            );
            Ok(())
        });
}

/// Dominance curves are monotone in [0, 1] and end at 1 when the
/// ranking covers every word with size/pairs.
#[test]
fn dominance_curves_monotone() {
    Checker::new("dominance_curves_monotone")
        .cases(120)
        .regressions(REGRESSIONS)
        .run(arbitrary_queries, |raw| {
            let log = log_of(raw);
            if log.is_empty() {
                return Ok(());
            }
            let stats = PairStats::from_log(&log);
            let ranking: Vec<WordId> = (0..60).map(WordId).collect();
            let curves = dominance_curves(&ranking, |w| 1.0 + f64::from(w.0), &stats, |_, r| r);
            for series in [&curves.cum_size, &curves.cum_cost] {
                prop_assert!(series.windows(2).all(|w| w[0] <= w[1] + 1e-12));
                prop_assert!(series.iter().all(|&v| (-1e-12..=1.0 + 1e-12).contains(&v)));
            }
            prop_assert!((curves.cum_size.last().unwrap() - 1.0).abs() < 1e-9);
            if stats.num_pairs() > 0 {
                prop_assert!((curves.cum_cost.last().unwrap() - 1.0).abs() < 1e-9);
            }
            Ok(())
        });
}

/// Generator-level invariants on a real (tiny) workload.
#[test]
fn generated_workload_invariants() {
    let cfg = TraceConfig::tiny();
    let w = Workload::generate(&cfg, 3);
    // Queries: non-empty, bounded length, no stopwords, ids in universe.
    for q in w.queries.iter() {
        assert!(!q.is_empty() && q.len() <= 6);
        for &word in &q.words {
            assert!(word.index() < w.vocabulary.len());
            assert!(!w.vocabulary.is_stopword(word));
        }
    }
    // Document frequency totals match corpus contents.
    let df = w.corpus.document_frequencies(w.vocabulary.len());
    let total_words: usize = w.corpus.documents.iter().map(|d| d.words.len()).sum();
    assert_eq!(df.iter().sum::<u64>() as usize, total_words);
}

/// Skewness survives the generator end to end: the generated log's top
/// pair is far more frequent than the 50th.
#[test]
fn generated_log_is_skewed() {
    let cfg = TraceConfig::small();
    let mut rng = StdRng::seed_from_u64(17);
    let vocab = Vocabulary::generate(&cfg, &mut rng);
    let model = cca_trace::QueryModel::generate(&cfg, &vocab, &mut rng);
    let log = model.sample_log(40_000, &mut rng);
    let stats = PairStats::from_log(&log);
    let ratio = stats.skew_ratio(50).expect("at least 50 pairs");
    assert!(ratio > 5.0, "top/50th ratio {ratio}");
}
