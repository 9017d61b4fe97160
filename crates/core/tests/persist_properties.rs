//! Round-trip property battery over the shared report framing
//! (DESIGN.md §13/§14): every persisted report kind — controller,
//! serving, live — must re-read bit for bit from its own text format,
//! and formatting the parsed copy must be a fixed point. The reports
//! are randomized across the full field ranges (zeros, maxima, awkward
//! floats, sparse and dense histograms), so any asymmetry between the
//! shared writer and parser shows up as a shrunk counterexample.
//!
//! The malformed-input half feeds mutated placement and report texts to
//! every reader: each returns a value or a typed [`PersistError`] and
//! never panics, and every value it returns re-formats and re-reads to
//! itself.

use cca_check::{gen, prop_assert, prop_assert_eq, Checker, Rng, SeedableRng, Shrink, StdRng};
use cca_core::persist::PersistError;
use cca_core::{
    format_controller_report, format_live_report, format_placement, format_replica_placement,
    format_serving_report, read_controller_report, read_live_report, read_placement,
    read_replica_placement, read_serving_report, CcaProblem, ControllerReport, LatencyHistogram,
    LiveReport, Placement, ReplicaPlacement, ServingReport,
};

const REGRESSIONS: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/persist_properties.regressions");

#[derive(Debug, Clone)]
struct ReportCase {
    seed: u64,
}

impl Shrink for ReportCase {
    fn shrink(&self) -> Vec<Self> {
        self.seed
            .shrink()
            .into_iter()
            .map(|seed| ReportCase { seed })
            .collect()
    }
}

fn report_case(rng: &mut StdRng) -> ReportCase {
    ReportCase {
        seed: rng.random_range(0..u64::MAX),
    }
}

/// A u64 biased toward the edges (0, small, `u64::MAX`) where text
/// formats usually break.
fn edge_u64(rng: &mut StdRng) -> u64 {
    match rng.random_range(0u8..4) {
        0 => 0,
        1 => rng.random_range(0..1_000),
        2 => u64::MAX,
        _ => rng.random_range(0..u64::MAX),
    }
}

/// Floats that stress the shortest-decimal round trip: exact zeros,
/// dyadics, classic non-representable decimals, and huge/tiny ratios.
fn edge_f64(rng: &mut StdRng) -> f64 {
    match rng.random_range(0u8..5) {
        0 => 0.0,
        1 => rng.random_range(0..1_000_000) as f64 / 1024.0,
        2 => 0.1 + 0.2,
        3 => rng.random_range(0..u64::MAX) as f64 / 3.0,
        _ => rng.random_range(1..u64::MAX) as f64 * 1e-9,
    }
}

fn digest(rng: &mut StdRng) -> String {
    format!(
        "{:016x}{:016x}",
        rng.random_range(0..u64::MAX),
        rng.random_range(0..u64::MAX)
    )
}

fn histogram(rng: &mut StdRng) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for _ in 0..rng.random_range(0usize..8) {
        h.add_bucket(rng.random_range(0..65), rng.random_range(1..1_000_000));
    }
    h
}

fn controller_report(rng: &mut StdRng) -> ControllerReport {
    ControllerReport {
        epochs: edge_u64(rng),
        queries: edge_u64(rng),
        evaluated: edge_u64(rng),
        migrations: edge_u64(rng),
        objects_moved: edge_u64(rng),
        migrated_bytes: edge_u64(rng),
        rejected_not_worthwhile: edge_u64(rng),
        rejected_not_robust: edge_u64(rng),
        degradations: edge_u64(rng),
        solve_retries: edge_u64(rng),
        repairs: edge_u64(rng),
        repair_retries: edge_u64(rng),
        repair_moves: edge_u64(rng),
        repair_bytes: edge_u64(rng),
        node_losses: edge_u64(rng),
        unrecovered_losses: edge_u64(rng),
        accumulated_loss: edge_f64(rng),
        final_cost: edge_f64(rng),
        final_feasible: rng.random_range(0u8..2) == 1,
    }
}

fn serving_report(rng: &mut StdRng) -> ServingReport {
    ServingReport {
        queries: edge_u64(rng),
        served: edge_u64(rng),
        degraded: edge_u64(rng),
        shed_admission: edge_u64(rng),
        shed_overload: edge_u64(rng),
        shed_deadline: edge_u64(rng),
        executed_bytes: edge_u64(rng),
        estimated_bytes: edge_u64(rng),
        p50_ns: edge_u64(rng),
        p95_ns: edge_u64(rng),
        p99_ns: edge_u64(rng),
        histogram: histogram(rng),
        digest: digest(rng),
    }
}

fn live_report(rng: &mut StdRng) -> LiveReport {
    LiveReport {
        epochs: edge_u64(rng),
        queries: edge_u64(rng),
        served: edge_u64(rng),
        degraded: edge_u64(rng),
        shed_admission: edge_u64(rng),
        shed_overload: edge_u64(rng),
        shed_deadline: edge_u64(rng),
        executed_bytes: edge_u64(rng),
        estimated_bytes: edge_u64(rng),
        evaluated: edge_u64(rng),
        migrations: edge_u64(rng),
        abandoned_migrations: edge_u64(rng),
        migration_epochs: edge_u64(rng),
        migrated_bytes: edge_u64(rng),
        max_epoch_migrated_bytes: edge_u64(rng),
        migration_budget: edge_u64(rng),
        pre_epochs: edge_u64(rng),
        pre_queries: edge_u64(rng),
        pre_executed_bytes: edge_u64(rng),
        post_epochs: edge_u64(rng),
        post_queries: edge_u64(rng),
        post_executed_bytes: edge_u64(rng),
        p50_ns: edge_u64(rng),
        p95_ns: edge_u64(rng),
        p99_ns: edge_u64(rng),
        final_feasible: rng.random_range(0u8..2) == 1,
        digest: digest(rng),
        pre_histogram: histogram(rng),
        mid_histogram: histogram(rng),
        post_histogram: histogram(rng),
    }
}

/// Every report kind round-trips bit for bit and formatting the parsed
/// copy reproduces the exact bytes.
#[test]
fn every_report_kind_round_trips_bit_exact() {
    Checker::new("every_report_kind_round_trips_bit_exact")
        .cases(96)
        .regressions(REGRESSIONS)
        .run(report_case, |case| {
            let mut rng = StdRng::seed_from_u64(case.seed);

            let r = controller_report(&mut rng);
            let text = format_controller_report(&r);
            prop_assert!(
                text.starts_with("# cca-controller-report v1\n"),
                "controller header missing"
            );
            let parsed = read_controller_report(text.as_bytes())
                .map_err(|e| format!("controller report failed to parse: {e}"))?;
            prop_assert_eq!(&parsed, &r, "controller report changed in flight");
            prop_assert_eq!(
                format_controller_report(&parsed),
                text,
                "controller formatting is not a fixed point"
            );

            let r = serving_report(&mut rng);
            let text = format_serving_report(&r);
            prop_assert!(
                text.starts_with("# cca-serving-report v1\n"),
                "serving header missing"
            );
            let parsed = read_serving_report(text.as_bytes())
                .map_err(|e| format!("serving report failed to parse: {e}"))?;
            prop_assert_eq!(&parsed, &r, "serving report changed in flight");
            prop_assert_eq!(
                format_serving_report(&parsed),
                text,
                "serving formatting is not a fixed point"
            );

            let r = live_report(&mut rng);
            let text = format_live_report(&r);
            prop_assert!(
                text.starts_with("# cca-live-report v1\n"),
                "live header missing"
            );
            let parsed = read_live_report(text.as_bytes())
                .map_err(|e| format!("live report failed to parse: {e}"))?;
            prop_assert_eq!(&parsed, &r, "live report changed in flight");
            prop_assert_eq!(
                format_live_report(&parsed),
                text,
                "live formatting is not a fixed point"
            );

            Ok(())
        });
}

/// The three formats are mutually exclusive: a report parses only under
/// its own header.
#[test]
fn headers_are_mutually_exclusive() {
    let mut rng = StdRng::seed_from_u64(7);
    let controller = format_controller_report(&controller_report(&mut rng));
    let serving = format_serving_report(&serving_report(&mut rng));
    let live = format_live_report(&live_report(&mut rng));
    assert!(read_controller_report(serving.as_bytes()).is_err());
    assert!(read_controller_report(live.as_bytes()).is_err());
    assert!(read_serving_report(controller.as_bytes()).is_err());
    assert!(read_serving_report(live.as_bytes()).is_err());
    assert!(read_live_report(controller.as_bytes()).is_err());
    assert!(read_live_report(serving.as_bytes()).is_err());
}

/// Tokens the malformed-input battery splices into valid texts: field
/// separators, numbers at and past the edges, and header keywords.
const INSERTS: [&str; 7] = [
    "\t",
    "\n",
    "18446744073709551615",
    "-1",
    "nodes=",
    "replicas=",
    "v2",
];

/// A mutated text: shrinks by dropping bytes, prints as (lossy) text.
#[derive(Clone)]
struct Mutated(Vec<u8>);

impl std::fmt::Debug for Mutated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", String::from_utf8_lossy(&self.0))
    }
}

impl Shrink for Mutated {
    fn shrink(&self) -> Vec<Self> {
        self.0.shrink().into_iter().map(Mutated).collect()
    }
}

/// The problem every mutated placement text is read against.
fn placement_problem() -> CcaProblem {
    let mut b = CcaProblem::builder();
    for i in 0..12 {
        b.add_object(format!("kw{i}"), 1 + i as u64);
    }
    b.uniform_capacities(4, 100).build().expect("valid problem")
}

/// A v1 or v2 placement text of a random placement of
/// [`placement_problem`], mutated.
fn mutated_placement(rng: &mut StdRng) -> Mutated {
    let p = placement_problem();
    let replicas = rng.random_range(1usize..=3);
    let columns = (0..replicas)
        .map(|_| {
            let assignment = (0..p.num_objects())
                .map(|_| rng.random_range(0..p.num_nodes() as u32))
                .collect();
            Placement::new(assignment, p.num_nodes())
        })
        .collect();
    let text = format_replica_placement(&p, &ReplicaPlacement::from_columns(columns));
    Mutated(gen::mutate(rng, text.as_bytes(), &INSERTS))
}

/// A random controller, serving or live report text, mutated.
fn mutated_report(rng: &mut StdRng) -> Mutated {
    let text = match rng.random_range(0u8..3) {
        0 => format_controller_report(&controller_report(rng)),
        1 => format_serving_report(&serving_report(rng)),
        _ => format_live_report(&live_report(rng)),
    };
    Mutated(gen::mutate(rng, text.as_bytes(), &INSERTS))
}

/// Both placement readers answer every mutated text with a placement or
/// a typed error, and a placement they return re-formats and re-reads to
/// itself.
#[test]
fn mutated_placement_texts_are_rejected_or_round_trip() {
    let p = placement_problem();
    Checker::new("mutated_placement_texts_are_rejected_or_round_trip")
        .cases(512)
        .regressions(REGRESSIONS)
        .run(mutated_placement, |text| {
            if let Ok(placement) = read_placement(text.0.as_slice(), &p) {
                let again = read_placement(format_placement(&p, &placement).as_bytes(), &p)
                    .map_err(|e| format!("re-read failed: {e}"))?;
                prop_assert_eq!(again, placement, "placement changed in flight");
            }
            if let Ok(rp) = read_replica_placement(text.0.as_slice(), &p) {
                let again =
                    read_replica_placement(format_replica_placement(&p, &rp).as_bytes(), &p)
                        .map_err(|e| format!("re-read failed: {e}"))?;
                prop_assert_eq!(again, rp, "replica placement changed in flight");
            }
            Ok(())
        });
}

/// The three report readers answer every mutated report text, of any
/// kind, with a report or a typed error, and a report they return
/// re-formats and re-reads to itself.
#[test]
fn mutated_report_texts_are_rejected_or_round_trip() {
    Checker::new("mutated_report_texts_are_rejected_or_round_trip")
        .cases(512)
        .regressions(REGRESSIONS)
        .run(mutated_report, |text| {
            let reread = |e: PersistError| format!("re-read failed: {e}");
            if let Ok(r) = read_controller_report(text.0.as_slice()) {
                let again = read_controller_report(format_controller_report(&r).as_bytes())
                    .map_err(reread)?;
                // Debug equality, so that a NaN read from the text equals
                // itself while every other float compares bit for bit.
                prop_assert_eq!(
                    format!("{again:?}"),
                    format!("{r:?}"),
                    "controller report changed in flight"
                );
            }
            if let Ok(r) = read_serving_report(text.0.as_slice()) {
                let again =
                    read_serving_report(format_serving_report(&r).as_bytes()).map_err(reread)?;
                prop_assert_eq!(again, r, "serving report changed in flight");
            }
            if let Ok(r) = read_live_report(text.0.as_slice()) {
                let again = read_live_report(format_live_report(&r).as_bytes()).map_err(reread)?;
                prop_assert_eq!(again, r, "live report changed in flight");
            }
            Ok(())
        });
}
