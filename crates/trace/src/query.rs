//! Query model and query-log generation.
//!
//! Queries are produced by a phrase-driven topic model: a fixed set of
//! correlated keyword groups ("phrases") with Zipf-distributed popularity
//! provides the skewed, stable pair-correlation structure the paper observed
//! in the Ask.com logs (Fig 2), while background words drawn from the
//! vocabulary's Zipf popularity fill out the rest of each query.

use crate::config::TraceConfig;
use crate::words::{Vocabulary, WordId};
use crate::zipf::{sample_weighted, WeightedSampler, Zipf};
use cca_rand::Rng;

/// One user query: a set of distinct, non-stopword keywords.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Query {
    /// The queried keywords (distinct, unordered).
    pub words: Vec<WordId>,
}

impl Query {
    /// Number of keywords.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` for an empty query (never produced by the generator).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// A log of queries over a shared vocabulary.
#[derive(Debug, Clone)]
pub struct QueryLog {
    /// The queries, in arrival order.
    pub queries: Vec<Query>,
    /// Size of the word-id universe (stopwords + content words), for
    /// sizing lookup tables.
    pub universe: usize,
}

impl QueryLog {
    /// Number of queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Returns `true` if the log has no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Mean keywords per query.
    ///
    /// # Panics
    ///
    /// Panics if the log is empty.
    #[must_use]
    pub fn mean_length(&self) -> f64 {
        assert!(!self.queries.is_empty(), "empty query log");
        self.queries.iter().map(Query::len).sum::<usize>() as f64 / self.queries.len() as f64
    }

    /// Iterator over the queries.
    pub fn iter(&self) -> impl Iterator<Item = &Query> {
        self.queries.iter()
    }
}

/// The generative model behind a query log.
///
/// Kept separate from the generated [`QueryLog`] so that a *drifted* copy
/// (see [`crate::drift`]) can produce the "February" log of the paper's
/// stability analysis.
#[derive(Debug, Clone)]
pub struct QueryModel {
    /// Correlated keyword groups; each has 2–3 distinct content words.
    pub phrases: Vec<Vec<WordId>>,
    /// Relative phrase popularities (Zipf at generation; perturbed by
    /// drift).
    pub phrase_weights: Vec<f64>,
    phrase_probability: f64,
    query_length_weights: [f64; 6],
    /// Background query-word popularity sampler.
    background: Zipf,
    num_stopwords: usize,
    universe: usize,
}

impl QueryModel {
    /// Builds a query model over `vocabulary` per `config`.
    #[must_use]
    pub fn generate<R: Rng + ?Sized>(
        config: &TraceConfig,
        vocabulary: &Vocabulary,
        rng: &mut R,
    ) -> Self {
        config.assert_valid();
        assert_eq!(
            vocabulary.num_content_words(),
            config.vocab_size,
            "vocabulary and config disagree on content-word count"
        );
        let phrase_pop = Zipf::new(config.num_phrases, config.phrase_zipf_exponent);
        // Query-word popularity shares the document-popularity rank order
        // (popular page words are also queried more) but with flatter
        // exponents, so correlation mass spreads over mid-frequency words
        // instead of piling onto a few giant-index hub words.
        let query_word_pop = Zipf::new(config.vocab_size, config.query_word_zipf_exponent);
        let phrase_word_pop = Zipf::new(config.vocab_size, config.phrase_word_zipf_exponent);
        let mut phrases = Vec::with_capacity(config.num_phrases);
        let mut seen = std::collections::HashSet::new();
        while phrases.len() < config.num_phrases {
            let len = if rng.random::<f64>() < 0.8 { 2 } else { 3 };
            let mut words = Vec::with_capacity(len);
            let mut guard = 0;
            while words.len() < len && guard < 1000 {
                let w = WordId((config.num_stopwords + phrase_word_pop.sample(rng)) as u32);
                if !words.contains(&w) {
                    words.push(w);
                }
                guard += 1;
            }
            words.sort_unstable();
            if words.len() == len && seen.insert(words.clone()) {
                phrases.push(words);
            }
        }
        let phrase_weights: Vec<f64> = (0..config.num_phrases)
            .map(|k| phrase_pop.probability(k))
            .collect();
        QueryModel {
            phrases,
            phrase_weights,
            phrase_probability: config.phrase_probability,
            query_length_weights: config.query_length_weights,
            background: query_word_pop,
            num_stopwords: config.num_stopwords,
            universe: config.num_stopwords + config.vocab_size,
        }
    }

    /// Size of the word-id universe this model draws from.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }

    fn sample_background<R: Rng + ?Sized>(&self, rng: &mut R) -> WordId {
        WordId((self.num_stopwords + self.background.sample(rng)) as u32)
    }

    /// Samples one query. For bulk generation prefer
    /// [`QueryModel::sample_log`], which prepares the phrase sampler once.
    pub fn sample_query<R: Rng + ?Sized>(&self, rng: &mut R) -> Query {
        let phrase_sampler = WeightedSampler::new(&self.phrase_weights);
        self.sample_query_with(&phrase_sampler, rng)
    }

    fn sample_query_with<R: Rng + ?Sized>(
        &self,
        phrase_sampler: &WeightedSampler,
        rng: &mut R,
    ) -> Query {
        let len = 1 + sample_weighted(&self.query_length_weights, rng);
        let mut words: Vec<WordId> = Vec::with_capacity(len);
        if len >= 2 && rng.random::<f64>() < self.phrase_probability {
            let p = phrase_sampler.sample(rng);
            for &w in self.phrases[p].iter().take(len) {
                words.push(w);
            }
        }
        let mut guard = 0;
        while words.len() < len && guard < 1000 {
            let w = self.sample_background(rng);
            if !words.contains(&w) {
                words.push(w);
            }
            guard += 1;
        }
        Query { words }
    }

    /// Samples a log of `n` queries.
    #[must_use]
    pub fn sample_log<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> QueryLog {
        let phrase_sampler = WeightedSampler::new(&self.phrase_weights);
        let queries = (0..n)
            .map(|_| self.sample_query_with(&phrase_sampler, rng))
            .collect();
        QueryLog {
            queries,
            universe: self.universe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_rand::rngs::StdRng;
    use cca_rand::SeedableRng;

    fn model_and_rng() -> (QueryModel, StdRng) {
        let cfg = TraceConfig::tiny();
        let mut rng = StdRng::seed_from_u64(21);
        let vocab = Vocabulary::generate(&cfg, &mut rng);
        let model = QueryModel::generate(&cfg, &vocab, &mut rng);
        (model, rng)
    }

    #[test]
    fn queries_have_distinct_nonstopword_words() {
        let (model, mut rng) = model_and_rng();
        for _ in 0..2000 {
            let q = model.sample_query(&mut rng);
            assert!(!q.is_empty());
            assert!(q.len() <= 6);
            let set: std::collections::HashSet<_> = q.words.iter().collect();
            assert_eq!(set.len(), q.len(), "duplicate words in {q:?}");
            for &w in &q.words {
                assert!(w.index() >= 5, "stopword {w:?} in query"); // tiny() has 5 stopwords
            }
        }
    }

    #[test]
    fn mean_length_matches_configured_distribution() {
        let (model, mut rng) = model_and_rng();
        let log = model.sample_log(30_000, &mut rng);
        let expected = TraceConfig::tiny().expected_query_length();
        assert!(
            (log.mean_length() - expected).abs() < 0.05,
            "mean {} vs expected {expected}",
            log.mean_length()
        );
    }

    #[test]
    fn phrases_are_distinct_and_sorted() {
        let (model, _) = model_and_rng();
        let set: std::collections::HashSet<_> = model.phrases.iter().collect();
        assert_eq!(set.len(), model.phrases.len());
        for p in &model.phrases {
            assert!(p.windows(2).all(|w| w[0] < w[1]));
            assert!(p.len() == 2 || p.len() == 3);
        }
    }

    #[test]
    fn top_phrase_dominates_query_mass() {
        // The most popular phrase should appear far more often than the
        // least popular one.
        let (model, mut rng) = model_and_rng();
        let log = model.sample_log(30_000, &mut rng);
        let contains = |phrase: &[WordId]| {
            log.iter()
                .filter(|q| phrase.iter().all(|w| q.words.contains(w)))
                .count()
        };
        let top = contains(&model.phrases[0]);
        let bottom = contains(&model.phrases[model.phrases.len() - 1]);
        assert!(
            top > bottom * 3,
            "top phrase {top} occurrences vs bottom {bottom}"
        );
    }
}
