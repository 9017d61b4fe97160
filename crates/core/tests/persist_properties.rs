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
//!
//! The generators live in `persist_cases/`, which the library's
//! differential tests against the previous codec include as well.

use cca_check::{prop_assert, prop_assert_eq, Checker, Rng, SeedableRng, Shrink, StdRng};
use cca_core::persist::PersistError;
use cca_core::{
    format_placement, format_replica_placement, format_report, read_placement,
    read_replica_placement, read_report, CcaProblem, ControllerReport, LatencyHistogram,
    LiveReport, Placement, ReplicaPlacement, ServingReport,
};

mod persist_cases;
use persist_cases::{
    controller_report, live_report, mutated_placement, mutated_report, placement_problem,
    serving_report,
};

const REGRESSIONS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/persist_properties.regressions"
);

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
            let text = format_report(&r);
            prop_assert!(
                text.starts_with("# cca-controller-report v1\n"),
                "controller header missing"
            );
            let parsed = read_report::<ControllerReport>(text.as_bytes())
                .map_err(|e| format!("controller report failed to parse: {e}"))?;
            prop_assert_eq!(&parsed, &r, "controller report changed in flight");
            prop_assert_eq!(
                format_report(&parsed),
                text,
                "controller formatting is not a fixed point"
            );

            let r = serving_report(&mut rng);
            let text = format_report(&r);
            prop_assert!(
                text.starts_with("# cca-serving-report v1\n"),
                "serving header missing"
            );
            let parsed = read_report::<ServingReport>(text.as_bytes())
                .map_err(|e| format!("serving report failed to parse: {e}"))?;
            prop_assert_eq!(&parsed, &r, "serving report changed in flight");
            prop_assert_eq!(
                format_report(&parsed),
                text,
                "serving formatting is not a fixed point"
            );

            let r = live_report(&mut rng);
            let text = format_report(&r);
            prop_assert!(
                text.starts_with("# cca-live-report v1\n"),
                "live header missing"
            );
            let parsed = read_report::<LiveReport>(text.as_bytes())
                .map_err(|e| format!("live report failed to parse: {e}"))?;
            prop_assert_eq!(&parsed, &r, "live report changed in flight");
            prop_assert_eq!(
                format_report(&parsed),
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
    let controller = format_report(&controller_report(&mut rng));
    let serving = format_report(&serving_report(&mut rng));
    let live = format_report(&live_report(&mut rng));
    assert!(read_report::<ControllerReport>(serving.as_bytes()).is_err());
    assert!(read_report::<ControllerReport>(live.as_bytes()).is_err());
    assert!(read_report::<ServingReport>(controller.as_bytes()).is_err());
    assert!(read_report::<ServingReport>(live.as_bytes()).is_err());
    assert!(read_report::<LiveReport>(controller.as_bytes()).is_err());
    assert!(read_report::<LiveReport>(serving.as_bytes()).is_err());
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
            if let Ok(r) = read_report::<ControllerReport>(text.0.as_slice()) {
                let again = read_report::<ControllerReport>(format_report(&r).as_bytes())
                    .map_err(reread)?;
                // Debug equality, so that a NaN read from the text equals
                // itself while every other float compares bit for bit.
                prop_assert_eq!(
                    format!("{again:?}"),
                    format!("{r:?}"),
                    "controller report changed in flight"
                );
            }
            if let Ok(r) = read_report::<ServingReport>(text.0.as_slice()) {
                let again =
                    read_report::<ServingReport>(format_report(&r).as_bytes()).map_err(reread)?;
                prop_assert_eq!(again, r, "serving report changed in flight");
            }
            if let Ok(r) = read_report::<LiveReport>(text.0.as_slice()) {
                let again =
                    read_report::<LiveReport>(format_report(&r).as_bytes()).map_err(reread)?;
                prop_assert_eq!(again, r, "live report changed in flight");
            }
            Ok(())
        });
}
