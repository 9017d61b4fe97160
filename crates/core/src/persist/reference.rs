//! The report and placement codec as it was before the field tables:
//! three hand-written report trios over key lists, two placement header
//! parsers, and a replica reader that reads the whole text first. Kept
//! verbatim, except that the five `write_*` wrappers are left out, as the
//! differential oracle of the table-driven codec in the parent module.

use super::PersistError;
use crate::controller::ControllerReport;
use crate::placement::Placement;
use crate::problem::CcaProblem;
use crate::replica::ReplicaPlacement;
use crate::serving::{LatencyHistogram, LiveReport, ServingReport, NUM_BUCKETS};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};

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

/// Reads a v1 placement and matches it against `problem` by object name.
///
/// # Errors
///
/// Fails on malformed input, unknown or missing object names, duplicate
/// names (in the file or the problem), or nodes out of range.
pub fn read_placement<R: Read>(reader: R, problem: &CcaProblem) -> Result<Placement, PersistError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().transpose()?.ok_or(PersistError::Format {
        line: 1,
        message: "empty input".into(),
    })?;
    let nodes: usize = header
        .strip_prefix("# cca-placement v1 nodes=")
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .ok_or(PersistError::Format {
            line: 1,
            message: format!("bad header {header:?}"),
        })?;
    let mut columns = read_columns(lines, problem, nodes, 1)?;
    Ok(columns.pop().expect("one column per replica"))
}

/// The body both placement readers share once their header is parsed:
/// one `name<TAB>node…` line per object with `replicas` node fields,
/// split from the right, so a name is everything before them. Checks the
/// header's node and replica counts (line 1), then every line in order,
/// then that no object is missing (line 0), and returns one column per
/// replica.
fn read_columns<L: AsRef<str>>(
    lines: impl Iterator<Item = std::io::Result<L>>,
    problem: &CcaProblem,
    nodes: usize,
    replicas: usize,
) -> Result<Vec<Placement>, PersistError> {
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
        let trimmed = line.as_ref().trim();
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
    Ok(ReplicaPlacement::from_columns(read_columns(
        lines.map(Ok),
        problem,
        nodes,
        replicas,
    )?))
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

/// Reads a v1 serving report.
///
/// # Errors
///
/// Fails on malformed input, unknown/duplicate/missing keys, bucket
/// indices out of range, or unparsable values.
pub fn read_serving_report<R: Read>(reader: R) -> Result<ServingReport, PersistError> {
    let mut p = parse_framed(
        reader,
        "# cca-serving-report v1",
        &SERVING_KEYS,
        &["bucket"],
    )?;
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
