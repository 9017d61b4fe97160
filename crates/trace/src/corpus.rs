//! Synthetic document corpus.

use crate::config::TraceConfig;
use crate::words::{Vocabulary, WordId};
use cca_rand::Rng;

/// One synthetic web page: a URL and its set of distinct words (stopwords
/// included — they are filtered at index-build time, as in the paper's
/// preprocessing).
#[derive(Debug, Clone)]
pub struct Document {
    /// Synthetic URL identifying the page.
    pub url: String,
    /// Distinct words appearing on the page.
    pub words: Vec<WordId>,
}

/// A corpus of synthetic documents.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The documents.
    pub documents: Vec<Document>,
}

impl Corpus {
    /// Generates `config.num_documents` documents. Each document holds
    /// `mean_doc_length ± doc_length_jitter` distinct content words drawn
    /// with the vocabulary's Zipf popularity (so document frequencies, and
    /// hence index sizes, are heavy-tailed), plus a handful of stopwords.
    #[must_use]
    pub fn generate<R: Rng + ?Sized>(
        config: &TraceConfig,
        vocabulary: &Vocabulary,
        rng: &mut R,
    ) -> Self {
        config.assert_valid();
        let mut documents = Vec::with_capacity(config.num_documents);
        for d in 0..config.num_documents {
            let target = config.mean_doc_length
                + rng.random_range(0..=2 * config.doc_length_jitter)
                - config.doc_length_jitter;
            let target = target.min(vocabulary.num_content_words());
            let mut words = Vec::with_capacity(target + 4);
            let mut seen = std::collections::HashSet::with_capacity(target * 2);
            let mut guard = 0usize;
            while words.len() < target && guard < target * 200 {
                let w = vocabulary.sample_content_word(rng);
                if seen.insert(w) {
                    words.push(w);
                }
                guard += 1;
            }
            // A few stopwords so the index builder has something to filter.
            if vocabulary.num_stopwords > 0 {
                for _ in 0..rng.random_range(1..=4usize) {
                    let s = WordId(rng.random_range(0..vocabulary.num_stopwords as u32));
                    if seen.insert(s) {
                        words.push(s);
                    }
                }
            }
            documents.push(Document {
                url: format!("http://synthetic.example/{d:08}"),
                words,
            });
        }
        Corpus { documents }
    }

    /// Number of documents.
    #[must_use]
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Returns `true` if the corpus has no documents.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// Document frequency of every word: `df[w]` = number of documents
    /// containing word `w`. Indexed by word id over `universe` ids.
    #[must_use]
    pub fn document_frequencies(&self, universe: usize) -> Vec<u64> {
        let mut df = vec![0u64; universe];
        for doc in &self.documents {
            for w in &doc.words {
                df[w.index()] += 1;
            }
        }
        df
    }

    /// Mean number of distinct content words per document, given the
    /// vocabulary (stopwords excluded).
    #[must_use]
    pub fn mean_content_length(&self, vocabulary: &Vocabulary) -> f64 {
        if self.documents.is_empty() {
            return 0.0;
        }
        let total: usize = self
            .documents
            .iter()
            .map(|d| {
                d.words
                    .iter()
                    .filter(|&&w| !vocabulary.is_stopword(w))
                    .count()
            })
            .sum();
        total as f64 / self.documents.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_rand::rngs::StdRng;
    use cca_rand::SeedableRng;

    fn corpus_and_vocab() -> (Corpus, Vocabulary, TraceConfig) {
        let cfg = TraceConfig::tiny();
        let mut rng = StdRng::seed_from_u64(31);
        let vocab = Vocabulary::generate(&cfg, &mut rng);
        let corpus = Corpus::generate(&cfg, &vocab, &mut rng);
        (corpus, vocab, cfg)
    }

    #[test]
    fn corpus_has_requested_size() {
        let (corpus, _, cfg) = corpus_and_vocab();
        assert_eq!(corpus.len(), cfg.num_documents);
    }

    #[test]
    fn document_words_are_distinct() {
        let (corpus, _, _) = corpus_and_vocab();
        for doc in &corpus.documents {
            let set: std::collections::HashSet<_> = doc.words.iter().collect();
            assert_eq!(set.len(), doc.words.len(), "duplicates in {}", doc.url);
        }
    }

    #[test]
    fn urls_are_unique() {
        let (corpus, _, _) = corpus_and_vocab();
        let set: std::collections::HashSet<_> = corpus.documents.iter().map(|d| &d.url).collect();
        assert_eq!(set.len(), corpus.len());
    }

    #[test]
    fn mean_content_length_near_configured() {
        let (corpus, vocab, cfg) = corpus_and_vocab();
        let mean = corpus.mean_content_length(&vocab);
        assert!(
            (mean - cfg.mean_doc_length as f64).abs() < cfg.doc_length_jitter as f64,
            "mean {mean} vs configured {}",
            cfg.mean_doc_length
        );
    }

    #[test]
    fn document_frequencies_are_skewed() {
        let (corpus, vocab, cfg) = corpus_and_vocab();
        let df = corpus.document_frequencies(vocab.len());
        // Most popular content word should appear in far more documents than
        // a tail word.
        let head = df[cfg.num_stopwords];
        let tail = df[vocab.len() - 1];
        assert!(head > tail * 3, "head {head}, tail {tail}");
        // df counts must not exceed the corpus size.
        assert!(df.iter().all(|&c| c <= corpus.len() as u64));
    }

    #[test]
    fn stopwords_do_appear_in_documents() {
        let (corpus, vocab, _) = corpus_and_vocab();
        let df = corpus.document_frequencies(vocab.len());
        let stop_total: u64 = df[..vocab.num_stopwords].iter().sum();
        assert!(stop_total > 0, "no stopwords generated into documents");
    }
}
