//! Serving-front battery (DESIGN.md §13): batched admission must be
//! observationally identical to serial per-query execution, byte for
//! byte, across every admission-window size, thread count, and shard
//! count — and every offered query must be accounted exactly once.
//!
//! The reference model is deliberately simple: admission is a pure
//! per-query decision (estimate vs budget), execution is
//! [`QueryEngine::execute`], and grading is `service_ns` vs budget.
//! `serve` may batch, reorder, and parallelize however it likes, but its
//! per-query [`Response`]s must equal the reference exactly.

use cca::algo::{spread_copies, DomainTree};
use cca::hashing::md5;
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::search::QueryEngine;
use cca::serve::{serve, service_ns, Response, ResponseStatus, ServeConfig};
use cca::trace::{Query, TraceConfig};
use cca_check::{prop_assert, prop_assert_eq, Checker, Rng, SeedableRng, Shrink, StdRng};

const REGRESSIONS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/serving_properties.regressions"
);

/// The ISSUE's required serving matrix.
const INFLIGHTS: [usize; 3] = [1, 7, 64];
const THREADS: [usize; 3] = [1, 2, 8];
const SHARDS: [usize; 3] = [1, 2, 7];

fn tiny_pipeline(shards: Option<usize>) -> Pipeline {
    let mut cfg = PipelineConfig::new(TraceConfig::tiny(), 4);
    cfg.seed = 9;
    let mut p = Pipeline::build(&cfg);
    if let Some(s) = shards {
        p.problem.set_sharding(s, 2);
    }
    p
}

fn stream(p: &Pipeline, seed: u64, n: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    p.workload.model.sample_log(n, &mut rng).queries
}

fn pages_digest(pages: &[cca::hashing::PageId]) -> [u8; 16] {
    let mut bytes = Vec::with_capacity(pages.len() * 8);
    for p in pages {
        bytes.extend_from_slice(&p.0.to_le_bytes());
    }
    md5::digest(&bytes)
}

/// The serial reference: what `serve` must answer for query `i`,
/// derived without any batching machinery. Admission is per-query
/// (estimate vs budget), so the expected response stream is independent
/// of the window size by construction.
fn expected_response(
    engine: &QueryEngine,
    i: usize,
    q: &Query,
    budget_ns: Option<u64>,
) -> Response {
    let est_bytes = engine.model_probe(q);
    let est_ns = service_ns(q.words.len(), est_bytes);
    if let Some(budget) = budget_ns {
        if est_ns > budget {
            return Response {
                index: i,
                status: ResponseStatus::ShedAdmission,
                bytes: est_bytes,
                latency_ns: est_ns,
                pages: 0,
                pages_digest: md5::digest(b""),
            };
        }
    }
    let r = engine.execute(q);
    let latency_ns = service_ns(q.words.len(), r.comm_bytes);
    let status = match budget_ns {
        Some(b) if latency_ns > b => ResponseStatus::Degraded,
        _ => ResponseStatus::Served,
    };
    Response {
        index: i,
        status,
        bytes: r.comm_bytes,
        latency_ns,
        pages: r.pages.len() as u64,
        pages_digest: pages_digest(&r.pages),
    }
}

/// Shrinkable serving scenario: a fresh query stream plus a budget
/// regime (0 = no budget, 1 = zero budget, n ≥ 2 = (n−1) ms).
#[derive(Debug, Clone)]
struct ServeCase {
    stream_seed: u64,
    queries: usize,
    budget_code: u8,
}

impl ServeCase {
    fn deadline_ms(&self) -> Option<u64> {
        match self.budget_code {
            0 => None,
            code => Some(u64::from(code) - 1),
        }
    }
}

impl Shrink for ServeCase {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for queries in self.queries.shrink() {
            if queries >= 1 {
                out.push(ServeCase {
                    queries,
                    ..self.clone()
                });
            }
        }
        for budget_code in self.budget_code.shrink() {
            out.push(ServeCase {
                budget_code,
                ..self.clone()
            });
        }
        for stream_seed in self.stream_seed.shrink() {
            out.push(ServeCase {
                stream_seed,
                ..self.clone()
            });
        }
        out
    }
}

fn serve_case(rng: &mut StdRng) -> ServeCase {
    ServeCase {
        stream_seed: rng.random_range(0..1_000_000),
        queries: rng.random_range(1usize..=60),
        budget_code: rng.random_range(0u8..=3),
    }
}

/// Batched admission answers every query byte-identically to the serial
/// reference — responses, statuses, page digests and the whole report —
/// for every inflight × threads combination, with the counters
/// partitioning the offered stream exactly.
#[test]
fn batched_admission_matches_serial_execution() {
    let p = tiny_pipeline(None);
    let placement = cca::algo::greedy_placement(&p.problem);
    let cluster = p.cluster_for(&placement);
    Checker::new("batched_admission_matches_serial_execution")
        .cases(48)
        .regressions(REGRESSIONS)
        .run(serve_case, |c| {
            let queries = stream(&p, c.stream_seed, c.queries);
            let budget = c.deadline_ms().map(|ms| ms * 1_000_000);
            let engine = QueryEngine::new(&p.index, &cluster, p.config().aggregation);
            let expected: Vec<Response> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| expected_response(&engine, i, q, budget))
                .collect();
            let mut reference_report = None;
            for inflight in INFLIGHTS {
                for threads in THREADS {
                    let out = serve(
                        &p.index,
                        &cluster,
                        p.config().aggregation,
                        &queries,
                        &ServeConfig {
                            inflight,
                            threads,
                            deadline_ms: c.deadline_ms(),
                            burst: None,
                            overhead_ns: 0,
                        },
                    );
                    prop_assert!(
                        out.report.counters_consistent(),
                        "counters inconsistent at inflight {inflight} threads {threads}"
                    );
                    prop_assert_eq!(
                        out.responses.len(),
                        queries.len(),
                        "dropped responses at inflight {inflight} threads {threads}"
                    );
                    for (got, want) in out.responses.iter().zip(&expected) {
                        prop_assert_eq!(
                            got,
                            want,
                            "response diverged at inflight {inflight} threads {threads}"
                        );
                    }
                    match &reference_report {
                        None => reference_report = Some(out.report),
                        Some(r) => prop_assert_eq!(
                            &out.report,
                            r,
                            "report changed at inflight {inflight} threads {threads}"
                        ),
                    }
                }
            }
            Ok(())
        });
}

/// The persisted report is byte-identical across the full
/// inflight × threads × shards matrix (sharding enters through the
/// placement solve, whose sharded sums are exact, and serving must
/// preserve that equality to the report byte), and across the single-copy
/// cluster and the one-copy replicated cluster spread over a flat and a
/// contiguous domain tree (the §15 r = 1 equivalence).
#[test]
fn serving_report_is_byte_identical_across_the_matrix() {
    let mut reference: Option<String> = None;
    for shards in SHARDS {
        let p = tiny_pipeline(Some(shards));
        let placement = cca::algo::greedy_placement(&p.problem);
        let nodes = p.problem.num_nodes();
        let mut clusters = vec![("single-copy", p.cluster_for(&placement))];
        for (name, tree) in [
            ("flat r=1", DomainTree::flat(nodes)),
            ("contiguous r=1", DomainTree::contiguous(nodes, 2).unwrap()),
        ] {
            let rp = spread_copies(&p.problem, &tree, placement.clone(), 1, 1.0).unwrap();
            clusters.push((name, p.cluster_for_replicas(&rp)));
        }
        let queries = stream(&p, 0x5e12_7e00, 600);
        for (cluster_name, cluster) in &clusters {
            for inflight in INFLIGHTS {
                for threads in THREADS {
                    let out = serve(
                        &p.index,
                        cluster,
                        p.config().aggregation,
                        &queries,
                        &ServeConfig {
                            inflight,
                            threads,
                            deadline_ms: Some(1),
                            burst: None,
                            overhead_ns: 0,
                        },
                    );
                    let text = cca::algo::format_report(&out.report);
                    match &reference {
                        None => reference = Some(text),
                        Some(r) => assert_eq!(
                            &text, r,
                            "report changed at {cluster_name} shards {shards} \
                             inflight {inflight} threads {threads}"
                        ),
                    }
                }
            }
        }
    }
}

/// Overload accounting: offering 10× the bounded queue's capacity in one
/// burst sheds most arrivals but drops none silently — every offered
/// query is answered, and served + shed partition the stream exactly.
#[test]
fn overload_sheds_loudly_never_silently() {
    let p = tiny_pipeline(None);
    let placement = cca::algo::greedy_placement(&p.problem);
    let cluster = p.cluster_for(&placement);
    let config = ServeConfig {
        inflight: 4,
        threads: 2,
        deadline_ms: None,
        burst: Some(
            10 * ServeConfig {
                inflight: 4,
                ..ServeConfig::default()
            }
            .queue_capacity(),
        ),
        overhead_ns: 0,
    };
    let offered = config.burst.unwrap();
    let queries = stream(&p, 77, offered);
    let out = serve(
        &p.index,
        &cluster,
        p.config().aggregation,
        &queries,
        &config,
    );

    assert!(out.report.counters_consistent());
    assert_eq!(out.responses.len(), offered, "every offered query answered");
    assert_eq!(out.report.queries, offered as u64);
    assert!(out.report.shed_overload > 0, "10x capacity must overflow");
    assert_eq!(
        out.report.served + out.report.degraded + out.report.shed_overload,
        offered as u64,
        "served + shed must partition the offered stream"
    );
    // No index is answered twice or skipped.
    for (i, r) in out.responses.iter().enumerate() {
        assert_eq!(r.index, i);
    }
    // The executed subset still matches serial execution exactly.
    let engine = QueryEngine::new(&p.index, &cluster, p.config().aggregation);
    for r in out.responses.iter().filter(|r| r.status.executed()) {
        let serial = engine.execute(&queries[r.index]);
        assert_eq!(r.bytes, serial.comm_bytes, "query {}", r.index);
        assert_eq!(
            r.pages_digest,
            pages_digest(&serial.pages),
            "query {}",
            r.index
        );
    }
}

/// A trickle burst (smaller than the window) through the open loop sheds
/// only once the queue genuinely fills, and the report stays consistent.
#[test]
fn trickle_burst_accounts_exactly() {
    let p = tiny_pipeline(None);
    let placement = cca::algo::greedy_placement(&p.problem);
    let cluster = p.cluster_for(&placement);
    let queries = stream(&p, 78, 64);
    let out = serve(
        &p.index,
        &cluster,
        p.config().aggregation,
        &queries,
        &ServeConfig {
            inflight: 4,
            threads: 1,
            deadline_ms: None,
            burst: Some(3),
            overhead_ns: 0,
        },
    );
    assert!(out.report.counters_consistent());
    assert_eq!(out.responses.len(), 64);
    assert_eq!(
        out.report.served + out.report.degraded + out.report.shed_overload,
        64
    );
}

/// Golden pin of an open-loop run whose burst exceeds half the queue
/// capacity. With inflight 4 (capacity 8) and burst 6, an arrival is
/// shed for overload once the queries admitted earlier in its burst plus
/// those the previous burst admitted reach 8, so bursts alternately
/// admit 6 and 2. The pin fixes that carried count, not only the
/// partition.
#[test]
fn golden_open_loop_report() {
    let p = tiny_pipeline(None);
    let placement = cca::algo::greedy_placement(&p.problem);
    let cluster = p.cluster_for(&placement);
    let queries = stream(&p, 79, 200);
    let out = serve(
        &p.index,
        &cluster,
        p.config().aggregation,
        &queries,
        &ServeConfig {
            inflight: 4,
            threads: 2,
            deadline_ms: None,
            burst: Some(6),
            overhead_ns: 0,
        },
    );
    let text = cca::algo::format_report(&out.report);
    let expected = "# cca-serving-report v1\n\
        queries\t200\n\
        served\t136\n\
        degraded\t0\n\
        shed_admission\t0\n\
        shed_overload\t64\n\
        shed_deadline\t0\n\
        executed_bytes\t3848\n\
        estimated_bytes\t424\n\
        p50_ns\t65535\n\
        p95_ns\t262143\n\
        p99_ns\t524287\n\
        digest\tb6dd261b65a652b4b30e2a5091178801\n\
        bucket\t15\t63\n\
        bucket\t16\t39\n\
        bucket\t17\t26\n\
        bucket\t18\t4\n\
        bucket\t19\t3\n\
        bucket\t20\t1\n";
    assert_eq!(text, expected, "golden open-loop report drifted:\n{text}");
    let statuses: Vec<ResponseStatus> = out.responses.iter().map(|r| r.status).collect();
    for (b, burst) in statuses.chunks(6).enumerate() {
        let admitted = if b % 2 == 0 { 6 } else { 2 };
        let shed = burst.len().saturating_sub(admitted);
        assert!(
            burst[..burst.len() - shed].iter().all(|s| s.executed())
                && burst[burst.len() - shed..]
                    .iter()
                    .all(|&s| s == ResponseStatus::ShedOverload),
            "burst {b}: {burst:?}"
        );
    }
}

/// Golden pin of the full serving report for a fixed seed: counters,
/// quantiles, digest and every histogram bucket. Any change to the
/// virtual-time model, the admission rule, the digest format, or the
/// persisted layout must show up here and be re-pinned deliberately.
#[test]
fn golden_serving_report_round_trips() {
    let p = tiny_pipeline(None);
    let placement = cca::algo::greedy_placement(&p.problem);
    let cluster = p.cluster_for(&placement);
    let queries = stream(&p, 0x5e12_7e00, 400);
    let out = serve(
        &p.index,
        &cluster,
        p.config().aggregation,
        &queries,
        &ServeConfig {
            inflight: 16,
            threads: 2,
            deadline_ms: Some(1),
            burst: None,
            overhead_ns: 0,
        },
    );
    let text = cca::algo::format_report(&out.report);
    let expected = "# cca-serving-report v1\n\
        queries\t400\n\
        served\t400\n\
        degraded\t0\n\
        shed_admission\t0\n\
        shed_overload\t0\n\
        shed_deadline\t0\n\
        executed_bytes\t9288\n\
        estimated_bytes\t0\n\
        p50_ns\t65535\n\
        p95_ns\t262143\n\
        p99_ns\t524287\n\
        digest\tb8eeaf2aa937b0b351101ce7dc36e65c\n\
        bucket\t15\t190\n\
        bucket\t16\t121\n\
        bucket\t17\t63\n\
        bucket\t18\t18\n\
        bucket\t19\t7\n\
        bucket\t20\t1\n";
    assert_eq!(text, expected, "golden serving report drifted:\n{text}");
    // And the pinned bytes round-trip through the persistence layer.
    let parsed: cca::algo::ServingReport =
        cca::algo::read_report(text.as_bytes()).expect("parseable report");
    assert_eq!(parsed, out.report);
    assert!(parsed.counters_consistent());
}
