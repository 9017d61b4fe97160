//! Plain-text persistence for query logs.
//!
//! A deliberately simple, dependency-free format so logs can be inspected,
//! diffed, and produced by external tools:
//!
//! ```text
//! # cca-query-log v1 universe=2200
//! 17 93 4051
//! 8
//! 93 17
//! ```
//!
//! One query per line, word ids space-separated; a single header line
//! carries the universe size.

use crate::query::{Query, QueryLog};
use crate::words::WordId;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};

/// Error from [`read_query_log`].
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input is not a valid v1 query log.
    Format {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::Format { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format { .. } => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Serialises `log` to the v1 text format.
///
/// ```
/// use cca_trace::{format_query_log, read_query_log, Query, QueryLog, WordId};
/// let log = QueryLog {
///     queries: vec![Query { words: vec![WordId(3), WordId(7)] }],
///     universe: 10,
/// };
/// let text = format_query_log(&log);
/// let parsed = read_query_log(text.as_bytes()).unwrap();
/// assert_eq!(parsed.queries, log.queries);
/// ```
#[must_use]
pub fn format_query_log(log: &QueryLog) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# cca-query-log v1 universe={}", log.universe);
    for q in log.iter() {
        let mut first = true;
        for w in &q.words {
            if !first {
                out.push(' ');
            }
            let _ = write!(out, "{}", w.0);
            first = false;
        }
        out.push('\n');
    }
    out
}

/// Writes `log` to `writer` in the v1 text format.
///
/// # Errors
///
/// Propagates I/O errors. A `&mut` reference may be passed as the writer.
pub fn write_query_log<W: Write>(mut writer: W, log: &QueryLog) -> Result<(), PersistError> {
    writer.write_all(format_query_log(log).as_bytes())?;
    Ok(())
}

/// Reads a v1 query log from `reader`. A `&mut` reference may be passed as
/// the reader.
///
/// # Errors
///
/// Returns [`PersistError::Format`] on malformed headers, non-numeric word
/// ids, ids outside the declared universe, or empty/duplicate-word queries.
pub fn read_query_log<R: Read>(reader: R) -> Result<QueryLog, PersistError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().transpose()?.ok_or(PersistError::Format {
        line: 1,
        message: "empty input".into(),
    })?;
    let universe: usize = header
        .strip_prefix("# cca-query-log v1 universe=")
        .and_then(|u| u.trim().parse().ok())
        .ok_or(PersistError::Format {
            line: 1,
            message: format!("bad header {header:?}"),
        })?;

    let mut queries = Vec::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut words = Vec::new();
        for token in trimmed.split_whitespace() {
            let id: u32 = token.parse().map_err(|_| PersistError::Format {
                line: line_no,
                message: format!("invalid word id {token:?}"),
            })?;
            if id as usize >= universe {
                return Err(PersistError::Format {
                    line: line_no,
                    message: format!("word id {id} outside universe {universe}"),
                });
            }
            let w = WordId(id);
            if words.contains(&w) {
                return Err(PersistError::Format {
                    line: line_no,
                    message: format!("duplicate word id {id} in query"),
                });
            }
            words.push(w);
        }
        if words.is_empty() {
            return Err(PersistError::Format {
                line: line_no,
                message: "empty query".into(),
            });
        }
        queries.push(Query { words });
    }
    Ok(QueryLog { queries, universe })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceConfig, Workload};

    #[test]
    fn round_trip_preserves_log() {
        let w = Workload::generate(&TraceConfig::tiny(), 5);
        let text = format_query_log(&w.queries);
        let parsed = read_query_log(text.as_bytes()).expect("round trip");
        assert_eq!(parsed.universe, w.queries.universe);
        assert_eq!(parsed.queries, w.queries.queries);
    }

    #[test]
    fn writer_reader_round_trip() {
        let w = Workload::generate(&TraceConfig::tiny(), 6);
        let mut buf = Vec::new();
        write_query_log(&mut buf, &w.queries).expect("write");
        let parsed = read_query_log(buf.as_slice()).expect("read");
        assert_eq!(parsed.queries.len(), w.queries.len());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# cca-query-log v1 universe=10\n\n# comment\n1 2\n";
        let log = read_query_log(text.as_bytes()).expect("parse");
        assert_eq!(log.len(), 1);
        assert_eq!(log.queries[0].words, vec![WordId(1), WordId(2)]);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for (text, what) in [
            ("", "empty"),
            ("no header\n1 2\n", "bad header"),
            ("# cca-query-log v1 universe=5\nx y\n", "non-numeric"),
            ("# cca-query-log v1 universe=5\n7\n", "out of universe"),
            ("# cca-query-log v1 universe=5\n1 1\n", "duplicate"),
            (
                "# cca-query-log v1 universe=5\n   \n",
                "empty query counts as blank",
            ),
        ] {
            let res = read_query_log(text.as_bytes());
            if what == "empty query counts as blank" {
                assert!(res.is_ok(), "{what}");
            } else {
                assert!(res.is_err(), "{what} should fail");
            }
        }
    }
}
