//! Inverted indices over a synthetic corpus.
//!
//! "Each item of an inverted index contains an 8-byte page ID (the MD5
//! digest of the corresponding page URL)" (paper §4.1). Ranking metadata is
//! deliberately omitted, as in the paper, because it does not affect
//! placement.

use crate::stopwords::StopwordList;
use cca_hash::PageId;
use cca_trace::{Corpus, Vocabulary, WordId};
use std::collections::HashMap;

/// A keyword-partitioned inverted index: one sorted posting list of
/// [`PageId`]s per indexed keyword.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: HashMap<WordId, Vec<PageId>>,
    universe: usize,
}

impl InvertedIndex {
    /// Builds the index from `corpus`, skipping words that are stopwords by
    /// vocabulary designation or by spelling (`stopwords`).
    #[must_use]
    pub fn build(corpus: &Corpus, vocabulary: &Vocabulary, stopwords: &StopwordList) -> Self {
        let mut postings: HashMap<WordId, Vec<PageId>> = HashMap::new();
        for doc in &corpus.documents {
            let page = PageId::from_url(&doc.url);
            for &w in &doc.words {
                if vocabulary.is_stopword(w) || stopwords.contains(vocabulary.spelling(w)) {
                    continue;
                }
                postings.entry(w).or_default().push(page);
            }
        }
        for list in postings.values_mut() {
            list.sort_unstable();
            list.dedup();
        }
        InvertedIndex {
            postings,
            universe: vocabulary.len(),
        }
    }

    /// Number of indexed keywords.
    #[must_use]
    pub fn num_keywords(&self) -> usize {
        self.postings.len()
    }

    /// Size of the word-id universe the index was built over.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Posting list of keyword `w` (empty slice if unindexed).
    #[must_use]
    pub fn posting(&self, w: WordId) -> &[PageId] {
        self.postings.get(&w).map_or(&[], Vec::as_slice)
    }

    /// Index size of keyword `w` in bytes (`postings × 8`), the object size
    /// `s(i)` of the CCA formulation.
    #[must_use]
    pub fn size_bytes(&self, w: WordId) -> u64 {
        (self.posting(w).len() * PageId::WIRE_SIZE) as u64
    }

    /// All per-keyword sizes, indexed by word id (zero for unindexed words).
    #[must_use]
    pub fn all_sizes(&self) -> Vec<u64> {
        let mut sizes = vec![0u64; self.universe];
        for (&w, list) in &self.postings {
            sizes[w.index()] = (list.len() * PageId::WIRE_SIZE) as u64;
        }
        sizes
    }

    /// Total size of all posting lists in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.postings
            .values()
            .map(|l| (l.len() * PageId::WIRE_SIZE) as u64)
            .sum()
    }

    /// Iterator over indexed keywords.
    pub fn keywords(&self) -> impl Iterator<Item = WordId> + '_ {
        self.postings.keys().copied()
    }

    /// Intersects two sorted posting lists.
    ///
    /// ```
    /// use cca_hash::PageId;
    /// use cca_search::InvertedIndex;
    /// let a = [PageId(1), PageId(3), PageId(5)];
    /// let b = [PageId(3), PageId(4), PageId(5)];
    /// assert_eq!(InvertedIndex::intersect(&a, &b), vec![PageId(3), PageId(5)]);
    /// ```
    #[must_use]
    pub fn intersect(a: &[PageId], b: &[PageId]) -> Vec<PageId> {
        let mut out = Vec::with_capacity(a.len().min(b.len()));
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    /// Unions two sorted posting lists.
    #[must_use]
    pub fn union(a: &[PageId], b: &[PageId]) -> Vec<PageId> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }

    /// Intersects the posting lists of `words`, smallest-first (the
    /// standard evaluation order the paper assumes: "Intersection-like
    /// operations typically process two smallest objects first").
    #[must_use]
    pub fn intersect_keywords(&self, words: &[WordId]) -> Vec<PageId> {
        if words.is_empty() {
            return Vec::new();
        }
        let mut order: Vec<WordId> = words.to_vec();
        order.sort_unstable_by_key(|&w| (self.posting(w).len(), w));
        let mut result = self.posting(order[0]).to_vec();
        for &w in &order[1..] {
            if result.is_empty() {
                break;
            }
            result = Self::intersect(&result, self.posting(w));
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_rand::rngs::StdRng;
    use cca_rand::SeedableRng;
    use cca_trace::TraceConfig;

    fn build_tiny() -> (InvertedIndex, Vocabulary, Corpus) {
        let cfg = TraceConfig::tiny();
        let mut rng = StdRng::seed_from_u64(77);
        let vocab = Vocabulary::generate(&cfg, &mut rng);
        let corpus = Corpus::generate(&cfg, &vocab, &mut rng);
        let index = InvertedIndex::build(&corpus, &vocab, &StopwordList::smart());
        (index, vocab, corpus)
    }

    #[test]
    fn stopwords_are_not_indexed() {
        let (index, vocab, corpus) = build_tiny();
        for w in 0..vocab.num_stopwords as u32 {
            assert!(index.posting(WordId(w)).is_empty());
        }
        // But stopwords do appear in documents.
        let df = corpus.document_frequencies(vocab.len());
        assert!(df[..vocab.num_stopwords].iter().sum::<u64>() > 0);
    }

    #[test]
    fn posting_lists_are_sorted_and_deduped() {
        let (index, _, _) = build_tiny();
        let mut checked = 0;
        for w in index.keywords() {
            let p = index.posting(w);
            assert!(p.windows(2).all(|x| x[0] < x[1]), "unsorted or dup");
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn sizes_reflect_posting_lengths() {
        let (index, _, _) = build_tiny();
        let sizes = index.all_sizes();
        for w in index.keywords() {
            assert_eq!(sizes[w.index()], (index.posting(w).len() * 8) as u64);
            assert_eq!(index.size_bytes(w), sizes[w.index()]);
        }
        assert_eq!(index.total_bytes(), sizes.iter().sum::<u64>());
    }

    #[test]
    fn index_size_matches_document_frequency() {
        let (index, vocab, corpus) = build_tiny();
        let df = corpus.document_frequencies(vocab.len());
        for w in index.keywords() {
            assert_eq!(index.posting(w).len() as u64, df[w.index()]);
        }
    }

    #[test]
    fn intersect_and_union_on_known_lists() {
        let p = |v: &[u64]| v.iter().map(|&x| PageId(x)).collect::<Vec<_>>();
        let a = p(&[1, 3, 5, 7]);
        let b = p(&[3, 4, 5, 8]);
        assert_eq!(InvertedIndex::intersect(&a, &b), p(&[3, 5]));
        assert_eq!(InvertedIndex::union(&a, &b), p(&[1, 3, 4, 5, 7, 8]));
        assert_eq!(InvertedIndex::intersect(&a, &[]), p(&[]));
        assert_eq!(InvertedIndex::union(&a, &[]), a);
    }

    #[test]
    fn multiword_intersection_matches_naive() {
        let (index, vocab, _) = build_tiny();
        let ws: Vec<WordId> = index.keywords().take(3).collect();
        assert_eq!(ws.len(), 3);
        let fast = index.intersect_keywords(&ws);
        let naive: Vec<PageId> = index
            .posting(ws[0])
            .iter()
            .filter(|p| index.posting(ws[1]).contains(p) && index.posting(ws[2]).contains(p))
            .copied()
            .collect();
        let mut naive_sorted = naive;
        naive_sorted.sort_unstable();
        assert_eq!(fast, naive_sorted);
        let _ = vocab; // silence unused in some cfgs
    }

    #[test]
    fn empty_query_intersects_to_nothing() {
        let (index, _, _) = build_tiny();
        assert!(index.intersect_keywords(&[]).is_empty());
    }
}
