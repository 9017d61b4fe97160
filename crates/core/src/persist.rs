//! Plain-text persistence for placements and controller reports.
//!
//! Placement format (`# cca-placement v1`): one `object-name<TAB>node`
//! line per object, in object-id order. Names make the file robust
//! against object reordering between the writing and reading problem
//! instances: loading matches by name, not by position.
//!
//! Controller-report format (`# cca-controller-report v1`): one
//! `key<TAB>value` line per [`ControllerReport`] field in declaration
//! order. Floats round-trip through Rust's shortest exact decimal
//! `Display`, so a written report re-reads bit for bit.
//!
//! Serving-report format (`# cca-serving-report v1`): one
//! `key<TAB>value` line per scalar [`ServingReport`] field in
//! declaration order, then one `bucket<TAB>i<TAB>count` line per
//! non-empty histogram bucket in ascending bucket order. Every value is
//! a `u64` or a hex digest (the histogram's dyadic bucket bounds are the
//! reason the quantiles are integers), so the round trip is bit-exact
//! by construction.
//!
//! Live-report format (`# cca-live-report v1`): the same framing with
//! [`LiveReport`]'s scalar fields and **three** histogram row kinds
//! (`bucket_pre`/`bucket_mid`/`bucket_post`) for the latency split
//! around the migration window.
//!
//! All three report formats share one framing layer (header check,
//! `key<TAB>value` scalars, repeated histogram rows, line-numbered
//! errors); the per-format functions only choose keys and field types.

use crate::controller::ControllerReport;
use crate::placement::Placement;
use crate::problem::CcaProblem;
use crate::replica::ReplicaPlacement;
use crate::serving::{LatencyHistogram, LiveReport, ServingReport, NUM_BUCKETS};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};

/// Error from [`read_placement`].
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The input is not a valid v1 placement for the given problem.
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

/// Serialises `placement` against `problem` (names come from the problem).
///
/// # Panics
///
/// Panics if the dimensions disagree.
#[must_use]
pub fn format_placement(problem: &CcaProblem, placement: &Placement) -> String {
    assert_eq!(placement.num_objects(), problem.num_objects());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# cca-placement v1 nodes={} objects={}",
        placement.num_nodes(),
        placement.num_objects()
    );
    for o in problem.objects() {
        let _ = writeln!(out, "{}\t{}", problem.name(o), placement.node_of(o));
    }
    out
}

/// Writes a placement in the v1 text format.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_placement<W: Write>(
    mut writer: W,
    problem: &CcaProblem,
    placement: &Placement,
) -> Result<(), PersistError> {
    writer.write_all(format_placement(problem, placement).as_bytes())?;
    Ok(())
}

/// Reads a v1 placement and matches it against `problem` by object name.
///
/// # Errors
///
/// Fails on malformed input, unknown or missing object names, duplicate
/// names (in the file or the problem), or nodes out of range.
pub fn read_placement<R: Read>(
    reader: R,
    problem: &CcaProblem,
) -> Result<Placement, PersistError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().transpose()?.ok_or(PersistError::Format {
        line: 1,
        message: "empty input".into(),
    })?;
    let rest = header
        .strip_prefix("# cca-placement v1 nodes=")
        .ok_or(PersistError::Format {
            line: 1,
            message: format!("bad header {header:?}"),
        })?;
    let nodes: usize = rest
        .split_whitespace()
        .next()
        .and_then(|n| n.parse().ok())
        .ok_or(PersistError::Format {
            line: 1,
            message: format!("bad node count in header {header:?}"),
        })?;
    check_node_count(nodes, problem)?;

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

    let mut assignment = vec![u32::MAX; problem.num_objects()];
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (name, node_str) = trimmed.rsplit_once('\t').ok_or(PersistError::Format {
            line: line_no,
            message: "expected name<TAB>node".into(),
        })?;
        let node: usize = node_str.trim().parse().map_err(|_| PersistError::Format {
            line: line_no,
            message: format!("invalid node {node_str:?}"),
        })?;
        if node >= nodes {
            return Err(PersistError::Format {
                line: line_no,
                message: format!("node {node} out of range (< {nodes})"),
            });
        }
        let &idx = by_name.get(name).ok_or(PersistError::Format {
            line: line_no,
            message: format!("unknown object {name:?}"),
        })?;
        if assignment[idx] != u32::MAX {
            return Err(PersistError::Format {
                line: line_no,
                message: format!("object {name:?} assigned twice"),
            });
        }
        assignment[idx] = node as u32;
    }
    if let Some(missing) = assignment.iter().position(|&a| a == u32::MAX) {
        return Err(PersistError::Format {
            line: 0,
            message: format!(
                "object {:?} has no assignment",
                problem.name(crate::problem::ObjectId(missing as u32))
            ),
        });
    }
    Ok(Placement::new(assignment, nodes))
}

/// Rejects a placement header whose node count differs from the
/// problem's: every entry is range-checked against the header, so a
/// larger header would let out-of-range nodes through.
fn check_node_count(nodes: usize, problem: &CcaProblem) -> Result<(), PersistError> {
    if nodes != problem.num_nodes() {
        return Err(PersistError::Format {
            line: 1,
            message: format!(
                "placement has {nodes} nodes but the problem has {}",
                problem.num_nodes()
            ),
        });
    }
    Ok(())
}

/// Serialises a replica placement. With `r = 1` this is **byte-identical**
/// to [`format_placement`] on the primary column (the `v1` format); with
/// `r > 1` the header becomes `# cca-placement v2 … replicas=r` and every
/// line carries `r` tab-separated nodes (primary first).
///
/// # Panics
///
/// Panics if the dimensions disagree.
#[must_use]
pub fn format_replica_placement(problem: &CcaProblem, rp: &ReplicaPlacement) -> String {
    if rp.replicas() == 1 {
        return format_placement(problem, rp.primary());
    }
    assert_eq!(rp.num_objects(), problem.num_objects());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# cca-placement v2 nodes={} objects={} replicas={}",
        rp.num_nodes(),
        rp.num_objects(),
        rp.replicas()
    );
    for o in problem.objects() {
        let _ = write!(out, "{}", problem.name(o));
        for j in 0..rp.replicas() {
            let _ = write!(out, "\t{}", rp.node_of(o, j));
        }
        out.push('\n');
    }
    out
}

/// Writes a replica placement (`v1` framing for `r = 1`, `v2` otherwise).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_replica_placement<W: Write>(
    mut writer: W,
    problem: &CcaProblem,
    rp: &ReplicaPlacement,
) -> Result<(), PersistError> {
    writer.write_all(format_replica_placement(problem, rp).as_bytes())?;
    Ok(())
}

/// Reads a placement in either framing: a `v1` file loads as an `r = 1`
/// replica placement (exactly [`read_placement`]), a `v2` file loads all
/// `r` columns and matches objects by name.
///
/// # Errors
///
/// Fails on malformed input, unknown/missing/duplicate object names, or
/// nodes out of range.
pub fn read_replica_placement<R: Read>(
    mut reader: R,
    problem: &CcaProblem,
) -> Result<ReplicaPlacement, PersistError> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    if !text.starts_with("# cca-placement v2 ") {
        return Ok(ReplicaPlacement::from_primary(read_placement(
            text.as_bytes(),
            problem,
        )?));
    }
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    let parse_field = |key: &str| -> Result<usize, PersistError> {
        header
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .ok_or(PersistError::Format {
                line: 1,
                message: format!("bad {key} field in header {header:?}"),
            })
    };
    let nodes = parse_field("nodes=")?;
    let replicas = parse_field("replicas=")?;
    if replicas == 0 || nodes == 0 {
        return Err(PersistError::Format {
            line: 1,
            message: format!("degenerate header {header:?}"),
        });
    }
    // Both checks come before the `replicas × objects` column allocation.
    check_node_count(nodes, problem)?;
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
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split('\t');
        let name = fields.next().unwrap_or_default();
        let &idx = by_name.get(name).ok_or(PersistError::Format {
            line: line_no,
            message: format!("unknown object {name:?}"),
        })?;
        if columns[0][idx] != u32::MAX {
            return Err(PersistError::Format {
                line: line_no,
                message: format!("object {name:?} assigned twice"),
            });
        }
        for column in columns.iter_mut() {
            let node_str = fields.next().ok_or(PersistError::Format {
                line: line_no,
                message: format!("expected {replicas} replica nodes"),
            })?;
            let node: usize = node_str.trim().parse().map_err(|_| PersistError::Format {
                line: line_no,
                message: format!("invalid node {node_str:?}"),
            })?;
            if node >= nodes {
                return Err(PersistError::Format {
                    line: line_no,
                    message: format!("node {node} out of range (< {nodes})"),
                });
            }
            column[idx] = node as u32;
        }
        if fields.next().is_some() {
            return Err(PersistError::Format {
                line: line_no,
                message: format!("more than {replicas} replica nodes"),
            });
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
    Ok(ReplicaPlacement::from_columns(
        columns
            .into_iter()
            .map(|assignment| Placement::new(assignment, nodes))
            .collect(),
    ))
}

// ---------------------------------------------------------------------------
// Shared `# cca-*-report v1` framing
//
// Every report format is the same line discipline: a fixed header, one
// `key<TAB>value` line per scalar field in declaration order, then zero
// or more repeated histogram rows (`<row-key><TAB>index<TAB>count`,
// ascending index). The writer and parser below are that discipline,
// factored once; the per-format functions are thin typed shells.
// ---------------------------------------------------------------------------

/// Writer half of the shared framing: accumulates the header, scalar
/// fields, and histogram rows in emission order.
struct ReportWriter {
    out: String,
}

impl ReportWriter {
    fn new(header: &str) -> Self {
        ReportWriter {
            out: format!("{header}\n"),
        }
    }

    fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.out, "{key}\t{value}");
    }

    fn buckets(&mut self, key: &str, histogram: &LatencyHistogram) {
        for (i, count) in histogram.nonempty() {
            let _ = writeln!(self.out, "{key}\t{i}\t{count}");
        }
    }

    fn finish(self) -> String {
        self.out
    }
}

/// Parser half of the shared framing: scalar values and histogram rows
/// collected with the line-numbered error discipline every report format
/// shares (unknown key, duplicate key, bucket index range, duplicate
/// bucket, missing key at line 0).
struct ParsedReport {
    values: HashMap<String, String>,
    rows: HashMap<String, LatencyHistogram>,
}

fn parse_framed<R: Read>(
    reader: R,
    header_want: &str,
    scalar_keys: &[&str],
    row_keys: &[&str],
) -> Result<ParsedReport, PersistError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().transpose()?.ok_or(PersistError::Format {
        line: 1,
        message: "empty input".into(),
    })?;
    if header.trim() != header_want {
        return Err(PersistError::Format {
            line: 1,
            message: format!("bad header {header:?}"),
        });
    }
    let mut values: HashMap<String, String> = HashMap::new();
    let mut rows: HashMap<String, LatencyHistogram> = HashMap::new();
    let mut seen_buckets: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let (key, value) = trimmed.split_once('\t').ok_or(PersistError::Format {
            line: line_no,
            message: "expected key<TAB>value".into(),
        })?;
        if let Some(&row_key) = row_keys.iter().find(|&&r| r == key) {
            let (idx, count) = value.split_once('\t').ok_or(PersistError::Format {
                line: line_no,
                message: format!("expected {row_key}<TAB>index<TAB>count"),
            })?;
            let idx: usize = idx.parse().map_err(|_| PersistError::Format {
                line: line_no,
                message: format!("invalid bucket index {idx:?}"),
            })?;
            if idx >= NUM_BUCKETS {
                return Err(PersistError::Format {
                    line: line_no,
                    message: format!("bucket {idx} out of range (< {NUM_BUCKETS})"),
                });
            }
            let seen = seen_buckets.entry(row_key).or_default();
            if seen.contains(&idx) {
                return Err(PersistError::Format {
                    line: line_no,
                    message: format!("duplicate bucket {idx}"),
                });
            }
            seen.push(idx);
            let count: u64 = count.parse().map_err(|_| PersistError::Format {
                line: line_no,
                message: format!("invalid bucket count {count:?}"),
            })?;
            rows.entry(row_key.to_string())
                .or_default()
                .add_bucket(idx, count);
            continue;
        }
        if !scalar_keys.contains(&key) {
            return Err(PersistError::Format {
                line: line_no,
                message: format!("unknown key {key:?}"),
            });
        }
        if values.insert(key.to_string(), value.to_string()).is_some() {
            return Err(PersistError::Format {
                line: line_no,
                message: format!("duplicate key {key:?}"),
            });
        }
    }
    Ok(ParsedReport { values, rows })
}

impl ParsedReport {
    fn get(&self, key: &str) -> Result<&String, PersistError> {
        self.values.get(key).ok_or(PersistError::Format {
            line: 0,
            message: format!("missing key {key:?}"),
        })
    }

    fn u64(&self, key: &str) -> Result<u64, PersistError> {
        self.get(key)?.parse().map_err(|_| PersistError::Format {
            line: 0,
            message: format!("invalid integer for {key:?}"),
        })
    }

    fn f64(&self, key: &str) -> Result<f64, PersistError> {
        self.get(key)?.parse().map_err(|_| PersistError::Format {
            line: 0,
            message: format!("invalid number for {key:?}"),
        })
    }

    fn bool(&self, key: &str) -> Result<bool, PersistError> {
        match self.get(key)?.as_str() {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(PersistError::Format {
                line: 0,
                message: format!("invalid bool {other:?} for {key:?}"),
            }),
        }
    }

    fn string(&self, key: &str) -> Result<String, PersistError> {
        Ok(self.get(key)?.clone())
    }

    fn histogram(&mut self, row_key: &str) -> LatencyHistogram {
        self.rows.remove(row_key).unwrap_or_default()
    }
}

/// Field order of the v1 controller-report format (also the write order).
const REPORT_KEYS: [&str; 19] = [
    "epochs",
    "queries",
    "evaluated",
    "migrations",
    "objects_moved",
    "migrated_bytes",
    "rejected_not_worthwhile",
    "rejected_not_robust",
    "degradations",
    "solve_retries",
    "repairs",
    "repair_retries",
    "repair_moves",
    "repair_bytes",
    "node_losses",
    "unrecovered_losses",
    "accumulated_loss",
    "final_cost",
    "final_feasible",
];

/// Serialises a [`ControllerReport`] in the v1 text format.
#[must_use]
pub fn format_controller_report(report: &ControllerReport) -> String {
    let mut w = ReportWriter::new("# cca-controller-report v1");
    let u = [
        report.epochs,
        report.queries,
        report.evaluated,
        report.migrations,
        report.objects_moved,
        report.migrated_bytes,
        report.rejected_not_worthwhile,
        report.rejected_not_robust,
        report.degradations,
        report.solve_retries,
        report.repairs,
        report.repair_retries,
        report.repair_moves,
        report.repair_bytes,
        report.node_losses,
        report.unrecovered_losses,
    ];
    for (key, value) in REPORT_KEYS.iter().zip(u) {
        w.field(key, value);
    }
    w.field("accumulated_loss", report.accumulated_loss);
    w.field("final_cost", report.final_cost);
    w.field("final_feasible", report.final_feasible);
    w.finish()
}

/// Writes a controller report in the v1 text format.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_controller_report<W: Write>(
    mut writer: W,
    report: &ControllerReport,
) -> Result<(), PersistError> {
    writer.write_all(format_controller_report(report).as_bytes())?;
    Ok(())
}

/// Reads a v1 controller report.
///
/// # Errors
///
/// Fails on malformed input, unknown/duplicate/missing keys, or
/// unparsable values.
pub fn read_controller_report<R: Read>(reader: R) -> Result<ControllerReport, PersistError> {
    let p = parse_framed(reader, "# cca-controller-report v1", &REPORT_KEYS, &[])?;
    Ok(ControllerReport {
        epochs: p.u64("epochs")?,
        queries: p.u64("queries")?,
        evaluated: p.u64("evaluated")?,
        migrations: p.u64("migrations")?,
        objects_moved: p.u64("objects_moved")?,
        migrated_bytes: p.u64("migrated_bytes")?,
        rejected_not_worthwhile: p.u64("rejected_not_worthwhile")?,
        rejected_not_robust: p.u64("rejected_not_robust")?,
        degradations: p.u64("degradations")?,
        solve_retries: p.u64("solve_retries")?,
        repairs: p.u64("repairs")?,
        repair_retries: p.u64("repair_retries")?,
        repair_moves: p.u64("repair_moves")?,
        repair_bytes: p.u64("repair_bytes")?,
        node_losses: p.u64("node_losses")?,
        unrecovered_losses: p.u64("unrecovered_losses")?,
        accumulated_loss: p.f64("accumulated_loss")?,
        final_cost: p.f64("final_cost")?,
        final_feasible: p.bool("final_feasible")?,
    })
}

/// Field order of the v1 serving-report format (also the write order);
/// `bucket` lines follow the scalar fields.
const SERVING_KEYS: [&str; 12] = [
    "queries",
    "served",
    "degraded",
    "shed_admission",
    "shed_overload",
    "shed_deadline",
    "executed_bytes",
    "estimated_bytes",
    "p50_ns",
    "p95_ns",
    "p99_ns",
    "digest",
];

/// Serialises a [`ServingReport`] in the v1 text format.
#[must_use]
pub fn format_serving_report(report: &ServingReport) -> String {
    let mut w = ReportWriter::new("# cca-serving-report v1");
    let u = [
        report.queries,
        report.served,
        report.degraded,
        report.shed_admission,
        report.shed_overload,
        report.shed_deadline,
        report.executed_bytes,
        report.estimated_bytes,
        report.p50_ns,
        report.p95_ns,
        report.p99_ns,
    ];
    for (key, value) in SERVING_KEYS.iter().zip(u) {
        w.field(key, value);
    }
    w.field("digest", &report.digest);
    w.buckets("bucket", &report.histogram);
    w.finish()
}

/// Writes a serving report in the v1 text format.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_serving_report<W: Write>(
    mut writer: W,
    report: &ServingReport,
) -> Result<(), PersistError> {
    writer.write_all(format_serving_report(report).as_bytes())?;
    Ok(())
}

/// Reads a v1 serving report.
///
/// # Errors
///
/// Fails on malformed input, unknown/duplicate/missing keys, bucket
/// indices out of range, or unparsable values.
pub fn read_serving_report<R: Read>(reader: R) -> Result<ServingReport, PersistError> {
    let mut p = parse_framed(reader, "# cca-serving-report v1", &SERVING_KEYS, &["bucket"])?;
    Ok(ServingReport {
        queries: p.u64("queries")?,
        served: p.u64("served")?,
        degraded: p.u64("degraded")?,
        shed_admission: p.u64("shed_admission")?,
        shed_overload: p.u64("shed_overload")?,
        shed_deadline: p.u64("shed_deadline")?,
        executed_bytes: p.u64("executed_bytes")?,
        estimated_bytes: p.u64("estimated_bytes")?,
        p50_ns: p.u64("p50_ns")?,
        p95_ns: p.u64("p95_ns")?,
        p99_ns: p.u64("p99_ns")?,
        digest: p.string("digest")?,
        histogram: p.histogram("bucket"),
    })
}

/// Field order of the v1 live-report format (also the write order);
/// `bucket_pre`/`bucket_mid`/`bucket_post` histogram rows follow the
/// scalar fields.
const LIVE_KEYS: [&str; 27] = [
    "epochs",
    "queries",
    "served",
    "degraded",
    "shed_admission",
    "shed_overload",
    "shed_deadline",
    "executed_bytes",
    "estimated_bytes",
    "evaluated",
    "migrations",
    "abandoned_migrations",
    "migration_epochs",
    "migrated_bytes",
    "max_epoch_migrated_bytes",
    "migration_budget",
    "pre_epochs",
    "pre_queries",
    "pre_executed_bytes",
    "post_epochs",
    "post_queries",
    "post_executed_bytes",
    "p50_ns",
    "p95_ns",
    "p99_ns",
    "final_feasible",
    "digest",
];

/// Serialises a [`LiveReport`] in the v1 text format
/// (`# cca-live-report v1`).
#[must_use]
pub fn format_live_report(report: &LiveReport) -> String {
    let mut w = ReportWriter::new("# cca-live-report v1");
    let u = [
        report.epochs,
        report.queries,
        report.served,
        report.degraded,
        report.shed_admission,
        report.shed_overload,
        report.shed_deadline,
        report.executed_bytes,
        report.estimated_bytes,
        report.evaluated,
        report.migrations,
        report.abandoned_migrations,
        report.migration_epochs,
        report.migrated_bytes,
        report.max_epoch_migrated_bytes,
        report.migration_budget,
        report.pre_epochs,
        report.pre_queries,
        report.pre_executed_bytes,
        report.post_epochs,
        report.post_queries,
        report.post_executed_bytes,
        report.p50_ns,
        report.p95_ns,
        report.p99_ns,
    ];
    for (key, value) in LIVE_KEYS.iter().zip(u) {
        w.field(key, value);
    }
    w.field("final_feasible", report.final_feasible);
    w.field("digest", &report.digest);
    w.buckets("bucket_pre", &report.pre_histogram);
    w.buckets("bucket_mid", &report.mid_histogram);
    w.buckets("bucket_post", &report.post_histogram);
    w.finish()
}

/// Writes a live report in the v1 text format.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_live_report<W: Write>(
    mut writer: W,
    report: &LiveReport,
) -> Result<(), PersistError> {
    writer.write_all(format_live_report(report).as_bytes())?;
    Ok(())
}

/// Reads a v1 live report.
///
/// # Errors
///
/// Fails on malformed input, unknown/duplicate/missing keys, bucket
/// indices out of range, or unparsable values.
pub fn read_live_report<R: Read>(reader: R) -> Result<LiveReport, PersistError> {
    let mut p = parse_framed(
        reader,
        "# cca-live-report v1",
        &LIVE_KEYS,
        &["bucket_pre", "bucket_mid", "bucket_post"],
    )?;
    Ok(LiveReport {
        epochs: p.u64("epochs")?,
        queries: p.u64("queries")?,
        served: p.u64("served")?,
        degraded: p.u64("degraded")?,
        shed_admission: p.u64("shed_admission")?,
        shed_overload: p.u64("shed_overload")?,
        shed_deadline: p.u64("shed_deadline")?,
        executed_bytes: p.u64("executed_bytes")?,
        estimated_bytes: p.u64("estimated_bytes")?,
        evaluated: p.u64("evaluated")?,
        migrations: p.u64("migrations")?,
        abandoned_migrations: p.u64("abandoned_migrations")?,
        migration_epochs: p.u64("migration_epochs")?,
        migrated_bytes: p.u64("migrated_bytes")?,
        max_epoch_migrated_bytes: p.u64("max_epoch_migrated_bytes")?,
        migration_budget: p.u64("migration_budget")?,
        pre_epochs: p.u64("pre_epochs")?,
        pre_queries: p.u64("pre_queries")?,
        pre_executed_bytes: p.u64("pre_executed_bytes")?,
        post_epochs: p.u64("post_epochs")?,
        post_queries: p.u64("post_queries")?,
        post_executed_bytes: p.u64("post_executed_bytes")?,
        p50_ns: p.u64("p50_ns")?,
        p95_ns: p.u64("p95_ns")?,
        p99_ns: p.u64("p99_ns")?,
        final_feasible: p.bool("final_feasible")?,
        digest: p.string("digest")?,
        pre_histogram: p.histogram("bucket_pre"),
        mid_histogram: p.histogram("bucket_mid"),
        post_histogram: p.histogram("bucket_post"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_hash_placement;

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

    #[test]
    fn writer_round_trip() {
        let p = problem();
        let placement = random_hash_placement(&p);
        let mut buf = Vec::new();
        write_placement(&mut buf, &p, &placement).expect("write");
        assert_eq!(read_placement(buf.as_slice(), &p).unwrap(), placement);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let p = problem();
        for text in [
            "",
            "not a header\nkw0\t1\n",
            "# cca-placement v1 nodes=3 objects=8\nkw0 1\n", // no tab
            "# cca-placement v1 nodes=3 objects=8\nkw0\tfour\n",
            "# cca-placement v1 nodes=3 objects=8\nkw0\t9\n", // node range
            "# cca-placement v1 nodes=3 objects=8\nmystery\t1\n",
        ] {
            assert!(read_placement(text.as_bytes(), &p).is_err(), "{text:?}");
        }
        // Missing objects.
        let partial = "# cca-placement v1 nodes=3 objects=8\nkw0\t1\n";
        assert!(read_placement(partial.as_bytes(), &p).is_err());
        // Duplicate assignment.
        let dup = "# cca-placement v1 nodes=3 objects=8\nkw0\t1\nkw0\t2\n";
        assert!(read_placement(dup.as_bytes(), &p).is_err());
        // A header node count other than the problem's is rejected at
        // line 1, by both readers, before any entry is range-checked —
        // and a v2 `replicas=` above the node count before allocating.
        for text in [
            "# cca-placement v1 nodes=64 objects=8\nkw0\t50\n",
            "# cca-placement v1 nodes=2 objects=8\nkw0\t1\n",
            "# cca-placement v2 nodes=64 objects=8 replicas=2\nkw0\t50\t1\n",
            "# cca-placement v2 nodes=3 objects=8 replicas=4\nkw0\t0\t1\t2\t0\n",
            "# cca-placement v2 nodes=3 objects=8 replicas=18446744073709551615\n",
        ] {
            let err = read_replica_placement(text.as_bytes(), &p).expect_err(text);
            assert!(
                matches!(err, PersistError::Format { line: 1, .. }),
                "{text:?}: {err}"
            );
            if text.starts_with("# cca-placement v1") {
                let err = read_placement(text.as_bytes(), &p).expect_err(text);
                assert!(
                    matches!(err, PersistError::Format { line: 1, .. }),
                    "{text:?}: {err}"
                );
            }
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
        let text = format_controller_report(&r);
        assert!(text.starts_with("# cca-controller-report v1\n"));
        let parsed = read_controller_report(text.as_bytes()).expect("round trip");
        assert_eq!(parsed, r);
        assert_eq!(
            parsed.final_cost.to_bits(),
            r.final_cost.to_bits(),
            "shortest-decimal Display must round-trip floats exactly"
        );
        let mut buf = Vec::new();
        write_controller_report(&mut buf, &r).expect("write");
        assert_eq!(read_controller_report(buf.as_slice()).unwrap(), r);
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
        let text = format_serving_report(&r);
        assert!(text.starts_with("# cca-serving-report v1\n"));
        let parsed = read_serving_report(text.as_bytes()).expect("round trip");
        assert_eq!(parsed, r);
        assert!(parsed.counters_consistent());
        // And the round trip is a fixed point of formatting.
        assert_eq!(format_serving_report(&parsed), text);
        let mut buf = Vec::new();
        write_serving_report(&mut buf, &r).expect("write");
        assert_eq!(read_serving_report(buf.as_slice()).unwrap(), r);
    }

    #[test]
    fn malformed_serving_reports_are_rejected() {
        for text in [
            "",
            "not a header\nqueries\t1\n",
            "# cca-serving-report v1\nqueries one\n",         // no tab
            "# cca-serving-report v1\nqueries\tone\n",        // bad integer
            "# cca-serving-report v1\nmystery\t1\n",          // unknown key
            "# cca-serving-report v1\nqueries\t1\nqueries\t2\n", // duplicate
            "# cca-serving-report v1\nqueries\t1\n",          // missing keys
            "# cca-serving-report v1\nbucket\t65\t1\n",       // bucket range
            "# cca-serving-report v1\nbucket\t1\n",           // bucket shape
        ] {
            assert!(read_serving_report(text.as_bytes()).is_err(), "{text:?}");
        }
        // Duplicate bucket lines are rejected even with all scalars present.
        let mut full = format_serving_report(&serving_report());
        full.push_str("bucket\t7\t1\nbucket\t7\t2\n");
        assert!(read_serving_report(full.as_bytes()).is_err());
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
        let text = format_live_report(&r);
        assert!(text.starts_with("# cca-live-report v1\n"));
        let parsed = read_live_report(text.as_bytes()).expect("round trip");
        assert_eq!(parsed, r);
        assert!(parsed.counters_consistent());
        assert_eq!(format_live_report(&parsed), text, "formatting is a fixed point");
        let mut buf = Vec::new();
        write_live_report(&mut buf, &r).expect("write");
        assert_eq!(read_live_report(buf.as_slice()).unwrap(), r);
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
            assert!(read_live_report(text.as_bytes()).is_err(), "{text:?}");
        }
        // The same bucket index may appear once per row kind, but not
        // twice within one kind.
        let mut full = format_live_report(&live_report());
        full.push_str("bucket_post\t3\t1\nbucket_post\t3\t2\n");
        assert!(read_live_report(full.as_bytes()).is_err());
    }

    #[test]
    fn malformed_controller_reports_are_rejected() {
        for text in [
            "",
            "not a header\nepochs\t1\n",
            "# cca-controller-report v1\nepochs one\n",      // no tab
            "# cca-controller-report v1\nepochs\tone\n",     // bad integer
            "# cca-controller-report v1\nmystery\t1\n",      // unknown key
            "# cca-controller-report v1\nepochs\t1\nepochs\t2\n", // duplicate
            "# cca-controller-report v1\nepochs\t1\n",       // missing keys
        ] {
            assert!(read_controller_report(text.as_bytes()).is_err(), "{text:?}");
        }
    }
}
