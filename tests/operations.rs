//! Operational-scenario integration tests: node decommission, budgeted
//! migration, and persistence, all against the full pipeline.

use cca::algo::{
    format_placement, migration_bytes, read_placement, reconcile, survive_node_loss,
    MigrateOptions, Strategy,
};
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::search::{AggregationPolicy, Cluster, QueryEngine};
use cca::trace::TraceConfig;

fn pipeline(nodes: usize) -> Pipeline {
    let mut config = PipelineConfig::new(TraceConfig::tiny(), nodes);
    config.seed = 61;
    Pipeline::build(&config)
}

/// Decommissioning a node keeps the system serving with modest extra
/// traffic, and the drained node really is empty.
#[test]
fn node_decommission_end_to_end() {
    let p = pipeline(5);
    let lprr = p.place(&Strategy::lprr(), Some(80)).unwrap();
    let before = p.replay(&lprr.placement).total_bytes;

    // Decommissioning is a node loss: zero its capacity, repair, polish.
    let slack = MigrateOptions::default().capacity_slack;
    let (_, drained, report) = survive_node_loss(&p.problem, &lprr.placement, &[2], slack);
    assert!(
        report.feasible,
        "survivors have 2x-average capacity headroom"
    );
    for o in p.problem.objects() {
        assert_ne!(drained.node_of(o), 2, "{o} left on drained node");
    }
    // Replay still works; traffic should not explode (the repair moves
    // correlation clusters together).
    let after = p.replay(&drained).total_bytes;
    let random = p
        .evaluate(&Strategy::RandomHash, None)
        .unwrap()
        .replay
        .total_bytes;
    assert!(
        after <= random,
        "drained placement ({after}) should stay below random ({random}); before was {before}"
    );
}

/// Draining and reconciling compose: drain a node, then reconcile back
/// toward the original placement once the node "returns" — with enough
/// budget and non-positive gains enabled, the placement is restored.
#[test]
fn drain_then_restore_round_trip() {
    let p = pipeline(4);
    let original = p.place(&Strategy::Greedy, Some(60)).unwrap().placement;
    let slack = MigrateOptions::default().capacity_slack;
    let (degraded, drained, _) = survive_node_loss(&p.problem, &original, &[1], slack);
    assert!(drained.within_all_capacities(&degraded, slack), "drainable");
    assert!(migration_bytes(&p.problem, &original, &drained) > 0);

    let restored = reconcile(
        &p.problem,
        &drained,
        &original,
        u64::MAX,
        &MigrateOptions {
            apply_nonpositive_gains: true,
            max_sweeps: 8,
            ..MigrateOptions::default()
        },
    );
    assert_eq!(
        restored.placement, original,
        "ample budget + nonpositive gains must restore the original placement"
    );
}

/// Placements survive a save/load round trip and replay identically.
#[test]
fn persistence_preserves_replay() {
    let p = pipeline(4);
    let report = p.place(&Strategy::lprr(), Some(80)).unwrap();
    let text = format_placement(&p.problem, &report.placement);
    let loaded = read_placement(text.as_bytes(), &p.problem).unwrap();
    assert_eq!(loaded, report.placement);

    let a = p.replay(&report.placement);
    let b = p.replay(&loaded);
    assert_eq!(a.total_bytes, b.total_bytes);
}

/// A saved query log replays to identical statistics after reloading.
#[test]
fn query_log_round_trip_replays_identically() {
    let p = pipeline(4);
    let text = cca::trace::format_query_log(&p.workload.queries);
    let loaded = cca::trace::read_query_log(text.as_bytes()).unwrap();

    let placement = p.place(&Strategy::Greedy, Some(60)).unwrap().placement;
    let cluster: Cluster = p.cluster_for(&placement);
    let engine = QueryEngine::new(&p.index, &cluster, AggregationPolicy::Intersection);
    assert_eq!(engine.replay(&p.workload.queries), engine.replay(&loaded));
}

/// Pins `survive_node_loss` on the `small` preset (seed 42): the greedy
/// placement loses its heaviest node (ties toward the lower id), and the
/// repaired placement's move count, migrated bytes and assignment digest
/// must not change when the repair's implementation does.
#[test]
fn heaviest_node_loss_repair_is_pinned() {
    use cca::algo::{greedy_placement, survive_node_loss};
    use cca::hashing::md5;

    let cases: [(usize, f64, usize, usize, u64, &str); 6] = [
        (4, 1.0, 2, 520, 158_120, "ad957166e644108a8810a789e2fe57db"),
        (4, 1.05, 2, 520, 158_120, "ad957166e644108a8810a789e2fe57db"),
        (6, 1.0, 0, 428, 122_040, "90d1e364e1ee5d73bf9dfa3ed74988dc"),
        (6, 1.05, 0, 428, 122_040, "90d1e364e1ee5d73bf9dfa3ed74988dc"),
        (10, 1.0, 0, 235, 83_320, "d919e01121e52bf254f5a4c46a3ae8b2"),
        (10, 1.05, 0, 238, 88_224, "5a9197f93e6a8a12ff35fbae66149f19"),
    ];
    for (nodes, slack, heaviest, moves, bytes, digest) in cases {
        let p = Pipeline::build(&PipelineConfig::new(TraceConfig::small(), nodes));
        let placement = greedy_placement(&p.problem);
        let loads = placement.loads(&p.problem);
        let dead = (0..nodes)
            .max_by(|&a, &b| loads[a].cmp(&loads[b]).then(b.cmp(&a)))
            .unwrap();
        let (_, repaired, report) = survive_node_loss(&p.problem, &placement, &[dead], slack);
        let bytes_le: Vec<u8> = repaired
            .as_slice()
            .iter()
            .flat_map(|n| n.to_le_bytes())
            .collect();
        let got = md5::Md5::hex(&md5::digest(&bytes_le));
        assert_eq!(
            (dead, report.moves, report.migrated_bytes, got.as_str()),
            (heaviest, moves, bytes, digest),
            "{nodes} nodes, slack {slack}"
        );
    }
}
