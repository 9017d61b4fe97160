//! Case generators shared by the persistence battery
//! (`tests/persist_properties.rs`) and the codec's differential property
//! against the previous codec (`persist::tests` in the library): random
//! reports across the full field ranges, random placements, and mutated
//! texts of both.
//!
//! The includer provides the codec and report names this module takes
//! from `super`, so the same file compiles against the library's own
//! crate root and against `cca_core` from outside.

#![allow(dead_code)] // each includer uses a different subset

use super::{
    format_replica_placement, format_report, CcaProblem, ControllerReport, LatencyHistogram,
    LiveReport, Placement, ReplicaPlacement, ServingReport,
};
use cca_check::{gen, Rng, Shrink, StdRng};

/// A u64 biased toward the edges (0, small, `u64::MAX`) where text
/// formats usually break.
pub fn edge_u64(rng: &mut StdRng) -> u64 {
    match rng.random_range(0u8..4) {
        0 => 0,
        1 => rng.random_range(0..1_000),
        2 => u64::MAX,
        _ => rng.random_range(0..u64::MAX),
    }
}

/// Floats that stress the shortest-decimal round trip: exact zeros,
/// dyadics, classic non-representable decimals, and huge/tiny ratios.
pub fn edge_f64(rng: &mut StdRng) -> f64 {
    match rng.random_range(0u8..5) {
        0 => 0.0,
        1 => rng.random_range(0..1_000_000) as f64 / 1024.0,
        2 => 0.1 + 0.2,
        3 => rng.random_range(0..u64::MAX) as f64 / 3.0,
        _ => rng.random_range(1..u64::MAX) as f64 * 1e-9,
    }
}

pub fn digest(rng: &mut StdRng) -> String {
    format!(
        "{:016x}{:016x}",
        rng.random_range(0..u64::MAX),
        rng.random_range(0..u64::MAX)
    )
}

pub fn histogram(rng: &mut StdRng) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for _ in 0..rng.random_range(0usize..8) {
        h.add_bucket(rng.random_range(0..65), rng.random_range(1..1_000_000));
    }
    h
}

pub fn controller_report(rng: &mut StdRng) -> ControllerReport {
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

pub fn serving_report(rng: &mut StdRng) -> ServingReport {
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

pub fn live_report(rng: &mut StdRng) -> LiveReport {
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

/// Tokens the malformed-input battery splices into valid texts: field
/// separators, numbers at and past the edges, and header keywords.
pub const INSERTS: [&str; 7] = [
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
pub struct Mutated(pub Vec<u8>);

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

/// `text` with [`gen::mutate`]'s one to four edits.
pub fn mutated(rng: &mut StdRng, text: &str) -> Mutated {
    Mutated(gen::mutate(rng, text.as_bytes(), &INSERTS))
}

/// The problem every mutated placement text is read against.
pub fn placement_problem() -> CcaProblem {
    let mut b = CcaProblem::builder();
    for i in 0..12 {
        b.add_object(format!("kw{i}"), 1 + i as u64);
    }
    b.uniform_capacities(4, 100).build().expect("valid problem")
}

/// A random placement of [`placement_problem`] with one to three copies
/// per object.
pub fn replica_placement(rng: &mut StdRng) -> ReplicaPlacement {
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
    ReplicaPlacement::from_columns(columns)
}

/// A v1 or v2 placement text of a random placement of
/// [`placement_problem`], mutated.
pub fn mutated_placement(rng: &mut StdRng) -> Mutated {
    let rp = replica_placement(rng);
    mutated(rng, &format_replica_placement(&placement_problem(), &rp))
}

/// A random controller, serving or live report text, mutated.
pub fn mutated_report(rng: &mut StdRng) -> Mutated {
    let text = match rng.random_range(0u8..3) {
        0 => format_report(&controller_report(rng)),
        1 => format_report(&serving_report(rng)),
        _ => format_report(&live_report(rng)),
    };
    mutated(rng, &text)
}
