//! Stopword filtering.
//!
//! The paper preprocesses pages by "removing HTML tags and trivially popular
//! words using the stopword list of the SMART software package". We embed a
//! compact common-English stopword list in the same spirit; the synthetic
//! vocabulary additionally marks its own stopwords by id, and the index
//! builder honours both signals.

use std::collections::HashSet;

/// A set of words to exclude from indexing.
#[derive(Debug, Clone, Default)]
pub struct StopwordList {
    words: HashSet<String>,
}

/// Common-English stopwords in the spirit of the SMART list.
const COMMON: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "am",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "cannot",
    "could",
    "did",
    "do",
    "does",
    "doing",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "has",
    "have",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "it",
    "its",
    "itself",
    "just",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "said",
    "same",
    "she",
    "should",
    "so",
    "some",
    "such",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "word",
    "would",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
];

impl StopwordList {
    /// The embedded common-English list.
    #[must_use]
    pub fn smart() -> Self {
        StopwordList {
            words: COMMON.iter().map(|s| (*s).to_string()).collect(),
        }
    }

    /// An empty list (no filtering by spelling).
    #[must_use]
    pub fn none() -> Self {
        StopwordList::default()
    }

    /// Builds a list from custom words.
    pub fn from_words<I, S>(words: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        StopwordList {
            words: words.into_iter().map(Into::into).collect(),
        }
    }

    /// Returns `true` if `word` is a stopword (case-insensitive).
    #[must_use]
    pub fn contains(&self, word: &str) -> bool {
        self.words.contains(word) || self.words.contains(&word.to_lowercase())
    }

    /// Number of stopwords in the list.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smart_list_contains_common_words() {
        let s = StopwordList::smart();
        for w in ["the", "of", "and", "with"] {
            assert!(s.contains(w), "{w} should be a stopword");
        }
        assert!(!s.contains("software"));
        assert!(!s.contains("download"));
    }

    #[test]
    fn case_insensitive_lookup() {
        let s = StopwordList::smart();
        assert!(s.contains("The"));
        assert!(s.contains("AND"));
    }

    #[test]
    fn custom_and_empty_lists() {
        let s = StopwordList::from_words(["foo", "bar"]);
        assert!(s.contains("foo"));
        assert!(!s.contains("the"));
        assert_eq!(s.len(), 2);
        assert!(StopwordList::none().is_empty());
    }
}
