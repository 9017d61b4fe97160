//! Plain-text persistence: two placement formats and three report
//! formats. Every format is a header line, then one record per line;
//! blank lines and `#` lines after the header are skipped, and errors
//! name their 1-based line (0 for whole-file problems).
//!
//! Placement formats: `# cca-placement v1 nodes=N objects=M`, then one
//! `object-name<TAB>node` line per object in object-id order; and, for r
//! copies per object, `# cca-placement v2 nodes=N objects=M replicas=r`
//! with r tab-separated nodes per line, primary first (r = 1 is written
//! as v1). Loading matches objects by name, not by position, so a file
//! survives object reordering between the writing and the reading
//! problem. One writer body and one reader (header parser, then a shared
//! line loop) serve both formats.
//!
//! Report formats: `# cca-controller-report v1`, `# cca-serving-report
//! v1` and `# cca-live-report v1`. After the header come one
//! `key<TAB>value` line per scalar field, then, per histogram row kind,
//! one `key<TAB>index<TAB>count` line per non-empty bucket in ascending
//! order. Each report kind names its header and its persisted fields
//! once, in one table (its [`Report`] impl); [`format_report`] and
//! [`read_report`] walk that table. Floats use Rust's shortest exact
//! decimal `Display`, so a written report re-reads bit for bit.

use crate::controller::ControllerReport;
use crate::placement::Placement;
use crate::problem::CcaProblem;
use crate::replica::ReplicaPlacement;
use crate::serving::{LatencyHistogram, LiveReport, ServingReport, NUM_BUCKETS};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};

/// Error from the readers of this module.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input is malformed, or a placement does not fit the given
    /// problem.
    Format {
        /// 1-based line number (0 for whole-file problems).
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

/// Serialises `placement` against `problem` (names come from the
/// problem) in the v1 format.
///
/// # Panics
///
/// Panics if the dimensions disagree.
#[must_use]
pub fn format_placement(problem: &CcaProblem, placement: &Placement) -> String {
    format_columns(problem, std::slice::from_ref(placement))
}

/// Serialises a replica placement: v1 for r = 1, **byte-identical** to
/// [`format_placement`] on the primary column; v2 for r > 1.
///
/// # Panics
///
/// Panics if the dimensions disagree.
#[must_use]
pub fn format_replica_placement(problem: &CcaProblem, rp: &ReplicaPlacement) -> String {
    format_columns(problem, rp.columns())
}

/// The one placement writer: the header (v1 for one column, v2 with
/// `replicas=` for more), then one `name<TAB>node…` line per object with
/// one node per column, in column order.
fn format_columns(problem: &CcaProblem, columns: &[Placement]) -> String {
    let (nodes, objects) = (columns[0].num_nodes(), columns[0].num_objects());
    assert_eq!(objects, problem.num_objects());
    let mut out = match columns.len() {
        1 => format!("# cca-placement v1 nodes={nodes} objects={objects}\n"),
        r => format!("# cca-placement v2 nodes={nodes} objects={objects} replicas={r}\n"),
    };
    for o in problem.objects() {
        out.push_str(problem.name(o));
        for column in columns {
            let _ = write!(out, "\t{}", column.node_of(o));
        }
        out.push('\n');
    }
    out
}

/// Reads a v1 placement and matches it against `problem` by object name.
///
/// # Errors
///
/// Fails on malformed input (a v2 file included), unknown or missing
/// object names, duplicate names (in the file or the problem), or nodes
/// out of range.
pub fn read_placement<R: Read>(reader: R, problem: &CcaProblem) -> Result<Placement, PersistError> {
    let mut columns = read_columns(reader, problem, false)?;
    Ok(columns.pop().expect("a v1 placement has one column"))
}

/// Reads a placement in either format: a v1 file loads as an r = 1
/// replica placement (exactly [`read_placement`]), a v2 file loads all r
/// columns. Objects are matched by name.
///
/// # Errors
///
/// Fails on malformed input, unknown/missing/duplicate object names, or
/// nodes out of range.
pub fn read_replica_placement<R: Read>(
    reader: R,
    problem: &CcaProblem,
) -> Result<ReplicaPlacement, PersistError> {
    read_columns(reader, problem, true).map(ReplicaPlacement::from_columns)
}

/// The one placement header parser: `(nodes, replicas)`. A v1 header
/// needs its node count right after `nodes=` and has one replica. A v2
/// header, read only when `v2` is set, may hold `nodes=` and `replicas=`
/// anywhere, and neither may be zero.
fn placement_header(header: &str, v2: bool) -> Result<(usize, usize), PersistError> {
    let error = |message: String| PersistError::Format { line: 1, message };
    if !(v2 && header.starts_with("# cca-placement v2 ")) {
        let nodes = header
            .strip_prefix("# cca-placement v1 nodes=")
            .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
            .ok_or_else(|| error(format!("bad header {header:?}")))?;
        return Ok((nodes, 1));
    }
    let field = |key: &str| -> Result<usize, PersistError> {
        header
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| error(format!("bad {key} field in header {header:?}")))
    };
    let (nodes, replicas) = (field("nodes=")?, field("replicas=")?);
    if replicas == 0 || nodes == 0 {
        return Err(error(format!("degenerate header {header:?}")));
    }
    Ok((nodes, replicas))
}

/// The one placement reader, streaming line by line: the header
/// ([`placement_header`]); its node and replica counts checked against
/// the problem (line 1); then one `name<TAB>node…` line per object with
/// `replicas` node fields, split from the right, so a name is everything
/// before them; then that no object is missing (line 0). Returns one
/// column per replica.
fn read_columns<R: Read>(
    reader: R,
    problem: &CcaProblem,
    v2: bool,
) -> Result<Vec<Placement>, PersistError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().transpose()?.ok_or(PersistError::Format {
        line: 1,
        message: "empty input".into(),
    })?;
    let (nodes, replicas) = placement_header(&header, v2)?;
    // Both header checks come before the `replicas × objects` column
    // allocation. Every entry is range-checked against the header's node
    // count, so a larger one would let out-of-range nodes through.
    if nodes != problem.num_nodes() {
        return Err(PersistError::Format {
            line: 1,
            message: format!(
                "placement has {nodes} nodes but the problem has {}",
                problem.num_nodes()
            ),
        });
    }
    if replicas > nodes {
        return Err(PersistError::Format {
            line: 1,
            message: format!("{replicas} replicas exceed the {nodes} nodes"),
        });
    }
    let mut by_name: HashMap<&str, usize> = HashMap::with_capacity(problem.num_objects());
    for o in problem.objects() {
        if by_name.insert(problem.name(o), o.index()).is_some() {
            return Err(PersistError::Format {
                line: 0,
                message: format!(
                    "problem has duplicate object name {:?}; name-keyed loading is ambiguous",
                    problem.name(o)
                ),
            });
        }
    }
    let mut columns = vec![vec![u32::MAX; problem.num_objects()]; replicas];
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let error = |message: String| PersistError::Format {
            line: line_no,
            message,
        };
        let name = trimmed
            .rsplitn(replicas + 1, '\t')
            .nth(replicas)
            .ok_or_else(|| error(format!("expected name and {replicas} tab-separated nodes")))?;
        let &idx = by_name
            .get(name)
            .ok_or_else(|| error(format!("unknown object {name:?}")))?;
        if columns[0][idx] != u32::MAX {
            return Err(error(format!("object {name:?} assigned twice")));
        }
        for (column, field) in columns
            .iter_mut()
            .zip(trimmed[name.len() + 1..].split('\t'))
        {
            let node: usize = field
                .trim()
                .parse()
                .map_err(|_| error(format!("invalid node {field:?}")))?;
            if node >= nodes {
                return Err(error(format!("node {node} out of range (< {nodes})")));
            }
            column[idx] = node as u32;
        }
    }
    if let Some(missing) = columns[0].iter().position(|&a| a == u32::MAX) {
        return Err(PersistError::Format {
            line: 0,
            message: format!(
                "object {:?} has no assignment",
                problem.name(crate::problem::ObjectId(missing as u32))
            ),
        });
    }
    Ok(columns
        .into_iter()
        .map(|assignment| Placement::new(assignment, nodes))
        .collect())
}

/// One persisted report field: where it lives in the report, and so
/// how it is written and read.
#[derive(Debug)]
pub enum Slot<'a> {
    /// A counter, in decimal.
    Count(&'a mut u64),
    /// A float, as its shortest exact decimal.
    Real(&'a mut f64),
    /// `true` or `false`.
    Flag(&'a mut bool),
    /// The rest of the line after the key's TAB.
    Text(&'a mut String),
    /// A histogram row kind: one `key<TAB>index<TAB>count` line per
    /// non-empty bucket. Its rows follow every scalar line.
    Buckets(&'a mut LatencyHistogram),
}

impl Slot<'_> {
    /// Parses a scalar's value into its field; `false` if it does not
    /// parse (a row kind takes no scalar value).
    fn set(&mut self, value: &str) -> bool {
        match self {
            Slot::Count(v) => value.parse().map(|x| **v = x).is_ok(),
            Slot::Real(v) => value.parse().map(|x| **v = x).is_ok(),
            Slot::Flag(v) => value.parse().map(|x| **v = x).is_ok(),
            Slot::Text(v) => {
                value.clone_into(v);
                true
            }
            Slot::Buckets(_) => false,
        }
    }
}

/// A report kind with a text format: its header line and its field
/// table. The table is the one place that names a kind's persisted keys;
/// [`format_report`] and [`read_report`] walk it.
pub trait Report: Clone + Default {
    /// The header line, e.g. `# cca-controller-report v1`.
    const HEADER: &'static str;

    /// Every persisted field, in write order: its key and its slot.
    fn fields(&mut self) -> Vec<(&'static str, Slot<'_>)>;
}

/// Serialises a report: the header, one `key<TAB>value` line per scalar
/// in table order, then each row kind's non-empty buckets as
/// `key<TAB>index<TAB>count`, row kinds in table order, buckets
/// ascending.
#[must_use]
pub fn format_report<R: Report>(report: &R) -> String {
    let mut copy = report.clone();
    let (mut out, mut rows) = (format!("{}\n", R::HEADER), String::new());
    for (key, slot) in copy.fields() {
        let _ = match slot {
            Slot::Count(v) => writeln!(out, "{key}\t{v}"),
            Slot::Real(v) => writeln!(out, "{key}\t{v}"),
            Slot::Flag(v) => writeln!(out, "{key}\t{v}"),
            Slot::Text(v) => writeln!(out, "{key}\t{v}"),
            Slot::Buckets(h) => {
                (h.nonempty()).try_for_each(|(i, count)| writeln!(rows, "{key}\t{i}\t{count}"))
            }
        };
    }
    out + &rows
}

/// Reads a report of kind `R`. Each line splits at its first TAB; a row
/// kind's value is `index<TAB>count`.
///
/// # Errors
///
/// Fails on a foreign header (line 1); on a line with no TAB, an unknown
/// or repeated key, a bucket index out of range or repeated within its
/// row kind, or a value that does not parse (at that line); and on a
/// missing scalar (line 0).
pub fn read_report<R: Report>(reader: impl Read) -> Result<R, PersistError> {
    let mut report = R::default();
    let mut fields = report.fields();
    // The `(field, bucket)` pairs read so far; a scalar is bucket 0.
    let mut seen = HashSet::new();
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().transpose()?.ok_or(PersistError::Format {
        line: 1,
        message: "empty input".into(),
    })?;
    if header.trim() != R::HEADER {
        return Err(PersistError::Format {
            line: 1,
            message: format!("bad header {header:?}"),
        });
    }
    for (i, line) in lines.enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let error = |message: String| PersistError::Format {
            line: i + 2,
            message,
        };
        let (key, value) =
            (trimmed.split_once('\t')).ok_or_else(|| error("expected key<TAB>value".into()))?;
        let k = (fields.iter().position(|&(name, _)| name == key))
            .ok_or_else(|| error(format!("unknown key {key:?}")))?;
        let slot = &mut fields[k].1;
        if let Slot::Buckets(histogram) = slot {
            let (idx, count) = (value.split_once('\t'))
                .ok_or_else(|| error(format!("expected {key}<TAB>index<TAB>count")))?;
            let idx: usize =
                (idx.parse()).map_err(|_| error(format!("invalid bucket index {idx:?}")))?;
            if idx >= NUM_BUCKETS {
                return Err(error(format!(
                    "bucket {idx} out of range (< {NUM_BUCKETS})"
                )));
            }
            if !seen.insert((k, idx)) {
                return Err(error(format!("duplicate bucket {idx}")));
            }
            let count =
                (count.parse()).map_err(|_| error(format!("invalid bucket count {count:?}")))?;
            histogram.add_bucket(idx, count);
        } else if !seen.insert((k, 0)) {
            return Err(error(format!("duplicate key {key:?}")));
        } else if !slot.set(value) {
            return Err(error(format!("invalid value {value:?} for {key:?}")));
        }
    }
    for (k, (key, slot)) in fields.iter().enumerate() {
        if !matches!(slot, Slot::Buckets(_)) && !seen.contains(&(k, 0)) {
            return Err(PersistError::Format {
                line: 0,
                message: format!("missing key {key:?}"),
            });
        }
    }
    drop(fields);
    Ok(report)
}

impl Report for ControllerReport {
    const HEADER: &'static str = "# cca-controller-report v1";

    fn fields(&mut self) -> Vec<(&'static str, Slot<'_>)> {
        use Slot::{Count, Flag, Real};
        vec![
            ("epochs", Count(&mut self.epochs)),
            ("queries", Count(&mut self.queries)),
            ("evaluated", Count(&mut self.evaluated)),
            ("migrations", Count(&mut self.migrations)),
            ("objects_moved", Count(&mut self.objects_moved)),
            ("migrated_bytes", Count(&mut self.migrated_bytes)),
            (
                "rejected_not_worthwhile",
                Count(&mut self.rejected_not_worthwhile),
            ),
            ("rejected_not_robust", Count(&mut self.rejected_not_robust)),
            ("degradations", Count(&mut self.degradations)),
            ("solve_retries", Count(&mut self.solve_retries)),
            ("repairs", Count(&mut self.repairs)),
            ("repair_retries", Count(&mut self.repair_retries)),
            ("repair_moves", Count(&mut self.repair_moves)),
            ("repair_bytes", Count(&mut self.repair_bytes)),
            ("node_losses", Count(&mut self.node_losses)),
            ("unrecovered_losses", Count(&mut self.unrecovered_losses)),
            ("accumulated_loss", Real(&mut self.accumulated_loss)),
            ("final_cost", Real(&mut self.final_cost)),
            ("final_feasible", Flag(&mut self.final_feasible)),
        ]
    }
}

impl Report for ServingReport {
    const HEADER: &'static str = "# cca-serving-report v1";

    fn fields(&mut self) -> Vec<(&'static str, Slot<'_>)> {
        use Slot::{Buckets, Count, Text};
        vec![
            ("queries", Count(&mut self.queries)),
            ("served", Count(&mut self.served)),
            ("degraded", Count(&mut self.degraded)),
            ("shed_admission", Count(&mut self.shed_admission)),
            ("shed_overload", Count(&mut self.shed_overload)),
            ("shed_deadline", Count(&mut self.shed_deadline)),
            ("executed_bytes", Count(&mut self.executed_bytes)),
            ("estimated_bytes", Count(&mut self.estimated_bytes)),
            ("p50_ns", Count(&mut self.p50_ns)),
            ("p95_ns", Count(&mut self.p95_ns)),
            ("p99_ns", Count(&mut self.p99_ns)),
            ("digest", Text(&mut self.digest)),
            ("bucket", Buckets(&mut self.histogram)),
        ]
    }
}

impl Report for LiveReport {
    const HEADER: &'static str = "# cca-live-report v1";

    fn fields(&mut self) -> Vec<(&'static str, Slot<'_>)> {
        use Slot::{Buckets, Count, Flag, Text};
        vec![
            ("epochs", Count(&mut self.epochs)),
            ("queries", Count(&mut self.queries)),
            ("served", Count(&mut self.served)),
            ("degraded", Count(&mut self.degraded)),
            ("shed_admission", Count(&mut self.shed_admission)),
            ("shed_overload", Count(&mut self.shed_overload)),
            ("shed_deadline", Count(&mut self.shed_deadline)),
            ("executed_bytes", Count(&mut self.executed_bytes)),
            ("estimated_bytes", Count(&mut self.estimated_bytes)),
            ("evaluated", Count(&mut self.evaluated)),
            ("migrations", Count(&mut self.migrations)),
            (
                "abandoned_migrations",
                Count(&mut self.abandoned_migrations),
            ),
            ("migration_epochs", Count(&mut self.migration_epochs)),
            ("migrated_bytes", Count(&mut self.migrated_bytes)),
            (
                "max_epoch_migrated_bytes",
                Count(&mut self.max_epoch_migrated_bytes),
            ),
            ("migration_budget", Count(&mut self.migration_budget)),
            ("pre_epochs", Count(&mut self.pre_epochs)),
            ("pre_queries", Count(&mut self.pre_queries)),
            ("pre_executed_bytes", Count(&mut self.pre_executed_bytes)),
            ("post_epochs", Count(&mut self.post_epochs)),
            ("post_queries", Count(&mut self.post_queries)),
            ("post_executed_bytes", Count(&mut self.post_executed_bytes)),
            ("p50_ns", Count(&mut self.p50_ns)),
            ("p95_ns", Count(&mut self.p95_ns)),
            ("p99_ns", Count(&mut self.p99_ns)),
            ("final_feasible", Flag(&mut self.final_feasible)),
            ("digest", Text(&mut self.digest)),
            ("bucket_pre", Buckets(&mut self.pre_histogram)),
            ("bucket_mid", Buckets(&mut self.mid_histogram)),
            ("bucket_post", Buckets(&mut self.post_histogram)),
        ]
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
#[path = "../tests/persist_cases/mod.rs"]
mod cases;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_hash_placement;
    use cca_check::{prop_assert, prop_assert_eq, Checker, Rng, SeedableRng, StdRng};
    use std::cell::Cell;

    fn problem() -> CcaProblem {
        let mut b = CcaProblem::builder();
        for i in 0..8 {
            b.add_object(format!("kw{i}"), 5 + i as u64);
        }
        b.uniform_capacities(3, 100).build().unwrap()
    }

    #[test]
    fn round_trip() {
        let p = problem();
        let placement = random_hash_placement(&p);
        let text = format_placement(&p, &placement);
        let parsed = read_placement(text.as_bytes(), &p).expect("round trip");
        assert_eq!(parsed, placement);
    }

    #[test]
    fn name_keyed_loading_survives_reordering() {
        let p = problem();
        let placement = random_hash_placement(&p);
        let mut lines: Vec<String> = format_placement(&p, &placement)
            .lines()
            .map(String::from)
            .collect();
        lines[1..].reverse(); // shuffle data lines, keep header
        let text = lines.join("\n");
        let parsed = read_placement(text.as_bytes(), &p).expect("reordered parse");
        assert_eq!(parsed, placement);
    }

    /// The one writer emits v1 for a single copy, whichever entry point
    /// calls it, and both readers load that text.
    #[test]
    fn writer_round_trip() {
        let p = problem();
        let placement = random_hash_placement(&p);
        let rp = ReplicaPlacement::from_primary(placement.clone());
        let text = format_replica_placement(&p, &rp);
        assert_eq!(text, format_placement(&p, &placement));
        assert!(text.starts_with("# cca-placement v1 nodes=3 objects=8\n"));
        assert_eq!(read_placement(text.as_bytes(), &p).unwrap(), placement);
        assert_eq!(read_replica_placement(text.as_bytes(), &p).unwrap(), rp);
    }

    /// The line a placement reader's error names, or `None` for an I/O
    /// error.
    fn line_of(error: &PersistError) -> Option<usize> {
        match error {
            PersistError::Format { line, .. } => Some(*line),
            PersistError::Io(_) => None,
        }
    }

    fn error_line(result: Result<impl std::fmt::Debug, PersistError>) -> Option<usize> {
        line_of(&result.expect_err("malformed input must be rejected"))
    }

    /// One case per error branch of each placement reader, with the line
    /// that [`read_placement`] and [`read_replica_placement`] must report
    /// (`None`: an I/O error). Line 0 is a whole-file problem. The
    /// problem-side duplicate-name branch is not listed: the builder
    /// rejects duplicate names, so no problem reaches it.
    #[test]
    fn malformed_inputs_are_rejected() {
        let p = problem();
        const V1: &str = "# cca-placement v1 nodes=3 objects=8\n";
        const V2: &str = "# cca-placement v2 nodes=3 objects=8 replicas=2\n";
        let cases: Vec<(String, Option<usize>, Option<usize>)> = vec![
            // v1 header: empty, foreign, bad node count, foreign node count.
            (String::new(), Some(1), Some(1)),
            ("not a header\nkw0\t1\n".into(), Some(1), Some(1)),
            ("# cca-placement v2\nkw0\t1\n".into(), Some(1), Some(1)),
            (
                "# cca-placement v1 nodes=x objects=8\n".into(),
                Some(1),
                Some(1),
            ),
            (
                "# cca-placement v1 nodes=64 objects=8\nkw0\t50\n".into(),
                Some(1),
                Some(1),
            ),
            (
                "# cca-placement v1 nodes=2 objects=8\nkw0\t1\n".into(),
                Some(1),
                Some(1),
            ),
            // v1 entries; comments and blank lines count toward the line.
            (format!("{V1}# note\n\nkw0 1\n"), Some(4), Some(4)),
            (format!("{V1}kw0\tfour\n"), Some(2), Some(2)),
            (format!("{V1}kw0\t-1\n"), Some(2), Some(2)),
            (format!("{V1}kw0\t9\n"), Some(2), Some(2)),
            (format!("{V1}mystery\t1\n"), Some(2), Some(2)),
            (format!("{V1}kw0\t1\nkw0\t2\n"), Some(3), Some(3)),
            (format!("{V1}kw0\t1\n"), Some(0), Some(0)),
            // v2 header: `read_placement` rejects every v2 file at line 1.
            (
                "# cca-placement v2 nodes=x objects=8 replicas=2\n".into(),
                Some(1),
                Some(1),
            ),
            (
                "# cca-placement v2 nodes=3 objects=8\n".into(),
                Some(1),
                Some(1),
            ),
            (
                "# cca-placement v2 nodes=3 objects=8 replicas=0\n".into(),
                Some(1),
                Some(1),
            ),
            (
                "# cca-placement v2 nodes=0 objects=8 replicas=1\n".into(),
                Some(1),
                Some(1),
            ),
            (
                "# cca-placement v2 nodes=64 objects=8 replicas=2\nkw0\t50\t1\n".into(),
                Some(1),
                Some(1),
            ),
            (
                "# cca-placement v2 nodes=3 objects=8 replicas=4\nkw0\t0\t1\t2\t0\n".into(),
                Some(1),
                Some(1),
            ),
            (
                "# cca-placement v2 nodes=3 objects=8 replicas=18446744073709551615\n".into(),
                Some(1),
                Some(1),
            ),
            // v2 entries.
            (format!("{V2}mystery\t0\t1\n"), Some(1), Some(2)),
            (format!("{V2}kw0\t0\t1\nkw0\t1\t2\n"), Some(1), Some(3)),
            (format!("{V2}# note\n\nkw0\t0\n"), Some(1), Some(4)),
            (format!("{V2}kw0\t0\tx\n"), Some(1), Some(2)),
            (format!("{V2}kw0\t0\t3\n"), Some(1), Some(2)),
            (format!("{V2}kw0\t0\t1\t2\n"), Some(1), Some(2)),
            (format!("{V2}kw0\t0\t1\n"), Some(1), Some(0)),
        ];
        for (text, placement, replica) in &cases {
            let got = error_line(read_placement(text.as_bytes(), &p));
            assert_eq!(got, *placement, "read_placement on {text:?}");
            let got = error_line(read_replica_placement(text.as_bytes(), &p));
            assert_eq!(got, *replica, "read_replica_placement on {text:?}");
        }
        // Invalid UTF-8 is an I/O error. Both readers read line by line,
        // so an earlier malformed line still wins.
        for (bytes, placement, replica) in [
            (&b"\xff\n"[..], None, None),
            (
                &b"# cca-placement v1 nodes=3 objects=8\nkw0\tfour\n\xff\n"[..],
                Some(2),
                Some(2),
            ),
            (
                &b"# cca-placement v1 nodes=3 objects=8\nkw0\t1\n\xff\n"[..],
                None,
                None,
            ),
            (
                &b"# cca-placement v2 nodes=3 objects=8 replicas=2\n\xff\n"[..],
                Some(1),
                None,
            ),
        ] {
            assert_eq!(
                error_line(read_placement(bytes, &p)),
                placement,
                "{bytes:?}"
            );
            assert_eq!(
                error_line(read_replica_placement(bytes, &p)),
                replica,
                "{bytes:?}"
            );
        }
    }

    fn report() -> ControllerReport {
        ControllerReport {
            epochs: 10_000,
            queries: 640_000,
            evaluated: 625,
            migrations: 12,
            objects_moved: 480,
            migrated_bytes: 123_456,
            rejected_not_worthwhile: 600,
            rejected_not_robust: 13,
            degradations: 2,
            solve_retries: 2,
            repairs: 1,
            repair_retries: 1,
            repair_moves: 37,
            repair_bytes: 9_999,
            node_losses: 1,
            unrecovered_losses: 0,
            accumulated_loss: 1234.5678901234567,
            final_cost: 0.1 + 0.2, // deliberately non-representable decimal
            final_feasible: true,
        }
    }

    #[test]
    fn controller_report_round_trips_bit_exact() {
        let r = report();
        let text = format_report(&r);
        assert!(text.starts_with("# cca-controller-report v1\n"));
        let parsed: ControllerReport = read_report(text.as_bytes()).expect("round trip");
        assert_eq!(parsed, r);
        assert_eq!(
            parsed.final_cost.to_bits(),
            r.final_cost.to_bits(),
            "shortest-decimal Display must round-trip floats exactly"
        );
        assert_eq!(format_report(&parsed), text, "formatting is a fixed point");
    }

    fn serving_report() -> ServingReport {
        let mut r = ServingReport {
            queries: 10_000,
            served: 9_200,
            degraded: 300,
            shed_admission: 480,
            shed_overload: 15,
            shed_deadline: 5,
            executed_bytes: 123_456_789,
            estimated_bytes: 9_876,
            digest: "d41d8cd98f00b204e9800998ecf8427e".into(),
            ..ServingReport::default()
        };
        for latency in [0u64, 1, 100, 100, 5_000, u64::MAX] {
            r.histogram.record(latency);
        }
        // Make the histogram total line up with served + degraded so the
        // partition invariant is checkable on the parsed copy too.
        for _ in 0..9_494u64 {
            r.histogram.record(2_048);
        }
        r.refresh_quantiles();
        r
    }

    #[test]
    fn serving_report_round_trips_bit_exact() {
        let r = serving_report();
        assert!(r.counters_consistent());
        let text = format_report(&r);
        assert!(text.starts_with("# cca-serving-report v1\n"));
        let parsed: ServingReport = read_report(text.as_bytes()).expect("round trip");
        assert_eq!(parsed, r);
        assert!(parsed.counters_consistent());
        // And the round trip is a fixed point of formatting.
        assert_eq!(format_report(&parsed), text);
    }

    #[test]
    fn malformed_serving_reports_are_rejected() {
        for text in [
            "",
            "not a header\nqueries\t1\n",
            "# cca-serving-report v1\nqueries one\n", // no tab
            "# cca-serving-report v1\nqueries\tone\n", // bad integer
            "# cca-serving-report v1\nmystery\t1\n",  // unknown key
            "# cca-serving-report v1\nqueries\t1\nqueries\t2\n", // duplicate
            "# cca-serving-report v1\nqueries\t1\n",  // missing keys
            "# cca-serving-report v1\nbucket\t65\t1\n", // bucket range
            "# cca-serving-report v1\nbucket\t1\n",   // bucket shape
        ] {
            assert!(
                read_report::<ServingReport>(text.as_bytes()).is_err(),
                "{text:?}"
            );
        }
        // Duplicate bucket lines are rejected even with all scalars present.
        let mut full = format_report(&serving_report());
        full.push_str("bucket\t7\t1\nbucket\t7\t2\n");
        assert!(read_report::<ServingReport>(full.as_bytes()).is_err());
    }

    fn live_report() -> LiveReport {
        let mut r = LiveReport {
            epochs: 400,
            queries: 25_600,
            served: 24_000,
            degraded: 600,
            shed_admission: 900,
            shed_overload: 60,
            shed_deadline: 40,
            executed_bytes: 9_876_543,
            estimated_bytes: 54_321,
            evaluated: 25,
            migrations: 2,
            abandoned_migrations: 1,
            migration_epochs: 9,
            migrated_bytes: 520_000,
            max_epoch_migrated_bytes: 65_536,
            migration_budget: 65_536,
            pre_epochs: 150,
            pre_queries: 9_000,
            pre_executed_bytes: 4_000_000,
            post_epochs: 200,
            post_queries: 12_600,
            post_executed_bytes: 3_876_543,
            final_feasible: true,
            digest: "b8eeaf2aa937b0b351101ce7dc36e65c".into(),
            ..LiveReport::default()
        };
        for _ in 0..9_000u64 {
            r.pre_histogram.record(40_000);
        }
        for _ in 0..3_000u64 {
            r.mid_histogram.record(70_000);
        }
        for _ in 0..12_600u64 {
            r.post_histogram.record(30_000);
        }
        r.refresh_quantiles();
        r
    }

    #[test]
    fn live_report_round_trips_bit_exact() {
        let r = live_report();
        assert!(r.counters_consistent());
        let text = format_report(&r);
        assert!(text.starts_with("# cca-live-report v1\n"));
        let parsed: LiveReport = read_report(text.as_bytes()).expect("round trip");
        assert_eq!(parsed, r);
        assert!(parsed.counters_consistent());
        assert_eq!(format_report(&parsed), text, "formatting is a fixed point");
    }

    #[test]
    fn malformed_live_reports_are_rejected() {
        for text in [
            "",
            "not a header\nepochs\t1\n",
            "# cca-serving-report v1\nqueries\t1\n", // wrong kind
            "# cca-live-report v1\nepochs one\n",    // no tab
            "# cca-live-report v1\nepochs\tone\n",   // bad integer
            "# cca-live-report v1\nmystery\t1\n",    // unknown key
            "# cca-live-report v1\nepochs\t1\nepochs\t2\n", // duplicate
            "# cca-live-report v1\nepochs\t1\n",     // missing keys
            "# cca-live-report v1\nbucket_pre\t65\t1\n", // bucket range
            "# cca-live-report v1\nbucket_mid\t1\n", // bucket shape
            "# cca-live-report v1\nbucket\t1\t1\n",  // serving's row key
        ] {
            assert!(
                read_report::<LiveReport>(text.as_bytes()).is_err(),
                "{text:?}"
            );
        }
        // The same bucket index may appear once per row kind, but not
        // twice within one kind.
        let mut full = format_report(&live_report());
        full.push_str("bucket_post\t3\t1\nbucket_post\t3\t2\n");
        assert!(read_report::<LiveReport>(full.as_bytes()).is_err());
    }

    #[test]
    fn malformed_controller_reports_are_rejected() {
        for text in [
            "",
            "not a header\nepochs\t1\n",
            "# cca-controller-report v1\nepochs one\n", // no tab
            "# cca-controller-report v1\nepochs\tone\n", // bad integer
            "# cca-controller-report v1\nmystery\t1\n", // unknown key
            "# cca-controller-report v1\nepochs\t1\nepochs\t2\n", // duplicate
            "# cca-controller-report v1\nepochs\t1\n",  // missing keys
        ] {
            assert!(
                read_report::<ControllerReport>(text.as_bytes()).is_err(),
                "{text:?}"
            );
        }
    }

    /// A controller report from the battery's generator, whose floats
    /// are now and then NaN, an infinity or -0.
    fn controller_with_specials(rng: &mut StdRng) -> ControllerReport {
        let mut r = cases::controller_report(rng);
        for v in [&mut r.accumulated_loss, &mut r.final_cost] {
            if rng.random_range(0u8..3) == 0 {
                *v = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][rng.random_range(0..4)];
            }
        }
        r
    }

    /// Equal reports, floats compared by their bits.
    fn same_controller(a: &ControllerReport, b: &ControllerReport) -> bool {
        let bits = |r: &ControllerReport| (r.accumulated_loss.to_bits(), r.final_cost.to_bits());
        let rest = |r: &ControllerReport| ControllerReport {
            accumulated_loss: 0.0,
            final_cost: 0.0,
            ..r.clone()
        };
        bits(a) == bits(b) && rest(a) == rest(b)
    }

    /// Random reports and placements format to the reference's bytes,
    /// and a controller report's special floats read back bit for bit.
    #[test]
    fn writers_match_the_reference() {
        Checker::new("writers_match_the_reference").cases(2048).run(
            |rng| rng.random_range(0..u64::MAX),
            |&seed| {
                let rng = &mut StdRng::seed_from_u64(seed);
                let r = controller_with_specials(rng);
                let text = format_report(&r);
                prop_assert_eq!(&text, &reference::format_controller_report(&r));
                let back: ControllerReport =
                    read_report(text.as_bytes()).map_err(|e| e.to_string())?;
                prop_assert!(
                    same_controller(&back, &r),
                    "{back:?} read back from {text:?}"
                );
                let r = cases::serving_report(rng);
                prop_assert_eq!(format_report(&r), reference::format_serving_report(&r));
                let r = cases::live_report(rng);
                prop_assert_eq!(format_report(&r), reference::format_live_report(&r));
                let (p, rp) = (cases::placement_problem(), cases::replica_placement(rng));
                prop_assert_eq!(
                    format_replica_placement(&p, &rp),
                    reference::format_replica_placement(&p, &rp)
                );
                prop_assert_eq!(
                    format_placement(&p, rp.primary()),
                    reference::format_placement(&p, rp.primary())
                );
                Ok(())
            },
        );
    }

    /// Feeds 2,048 mutated texts of one report kind (reports drawn by
    /// `generate`) to [`read_report`] and to the reference's reader: both
    /// accept with reports that are the `same`, or both reject. Returns
    /// how many texts were accepted.
    fn readers_agree<R: Report + std::fmt::Debug>(
        name: &str,
        generate: impl Fn(&mut StdRng) -> R,
        reference: impl Fn(&[u8]) -> Result<R, PersistError>,
        same: impl Fn(&R, &R) -> bool,
    ) -> u32 {
        let accepted = Cell::new(0);
        Checker::new(name).cases(2048).run(
            |rng| {
                let report = generate(rng);
                cases::mutated(rng, &format_report(&report))
            },
            |text| {
                match (read_report::<R>(text.0.as_slice()), reference(&text.0)) {
                    (Ok(got), Ok(want)) => {
                        prop_assert!(same(&got, &want), "read {got:?}, reference {want:?}");
                        accepted.set(accepted.get() + 1);
                    }
                    (Err(_), Err(_)) => {}
                    (got, want) => prop_assert!(false, "read {got:?}, reference {want:?}"),
                }
                Ok(())
            },
        );
        accepted.get()
    }

    /// Each report reader accepts and rejects what the reference does,
    /// with equal values, on mutated texts of its own kind.
    #[test]
    fn report_readers_match_the_reference() {
        let accepted = [
            readers_agree(
                "report_readers_match_the_reference/controller",
                controller_with_specials,
                |text| reference::read_controller_report(text),
                same_controller,
            ),
            readers_agree(
                "report_readers_match_the_reference/serving",
                cases::serving_report,
                |text| reference::read_serving_report(text),
                ServingReport::eq,
            ),
            readers_agree(
                "report_readers_match_the_reference/live",
                cases::live_report,
                |text| reference::read_live_report(text),
                LiveReport::eq,
            ),
        ];
        // Most mutations break a text; some survive to compare values.
        assert!(accepted.iter().all(|&n| n > 0), "accepted: {accepted:?}");
    }

    /// Both placement readers accept what the reference does, with equal
    /// placements, and fail at the same line. The one difference: the
    /// reference's replica reader read the whole text first, so invalid
    /// UTF-8 anywhere was an I/O error, where the streaming reader may
    /// first meet a malformed line.
    #[test]
    fn placement_readers_match_the_reference() {
        let p = cases::placement_problem();
        let (accepted, moved) = (Cell::new(0u32), Cell::new(0u32));
        Checker::new("placement_readers_match_the_reference")
            .cases(2048)
            .run(cases::mutated_placement, |text| {
                let bytes = text.0.as_slice();
                let (got, want) = (
                    read_placement(bytes, &p),
                    reference::read_placement(bytes, &p),
                );
                match (got, want) {
                    (Ok(got), Ok(want)) => prop_assert_eq!(got, want),
                    (Err(got), Err(want)) => {
                        prop_assert_eq!(line_of(&got), line_of(&want));
                    }
                    (got, want) => prop_assert!(false, "read {got:?}, reference {want:?}"),
                }
                let got = read_replica_placement(bytes, &p);
                let want = reference::read_replica_placement(bytes, &p);
                match (got, want) {
                    (Ok(got), Ok(want)) => {
                        prop_assert_eq!(got, want);
                        accepted.set(accepted.get() + 1);
                    }
                    (Err(PersistError::Format { .. }), Err(PersistError::Io(_)))
                        if std::str::from_utf8(bytes).is_err() =>
                    {
                        moved.set(moved.get() + 1);
                    }
                    (Err(got), Err(want)) => {
                        prop_assert_eq!(line_of(&got), line_of(&want));
                    }
                    (got, want) => prop_assert!(false, "read {got:?}, reference {want:?}"),
                }
                Ok(())
            });
        assert!(
            accepted.get() > 0 && moved.get() > 0,
            "{accepted:?} {moved:?}"
        );
    }
}
