//! Serving front with windowed batched admission (DESIGN.md §13).
//!
//! [`serve`] answers a query stream in fixed arrival windows of
//! [`ServeConfig::inflight`] queries ([`ServeConfig::burst`] in the open
//! loop). Each window makes one batched [`QueryEngine::probe_each`]
//! admission estimate, decides admission query by query in arrival
//! order, and executes the admitted queries in home-node order as
//! [`cca_par::par_map_indexed`] sweeps of at most `DIGEST_SLICE`
//! queries, each followed by one [`md5::digest_many`] call over its page
//! lists. Per-query latency budgets follow the established 0/2/3 degrade
//! taxonomy.
//!
//! # Virtual time is the determinism contract
//!
//! A serving report that changed with thread count or admission-window
//! size would be useless as a regression artifact, so latency here is
//! **virtual**: every query is charged a deterministic service time
//!
//! ```text
//! service_ns = SERVICE_BASE_NS
//!            + SERVICE_WORD_NS × keywords
//!            + SERVICE_BYTE_NS × comm_bytes
//! ```
//!
//! — a pure function of the query and the placement, with **no
//! queue-wait component**. Consequently the whole
//! [`ServingReport`] (counters, histogram, quantiles, digest) is
//! byte-identical across `threads` × `shards` × `inflight`; wall-clock
//! throughput is measured by the caller and reported separately (`cca
//! serve` prints it on stderr, and perfbench's `serve-paper` workload
//! times it). The wall clock enters execution only through the
//! [`DeadlineGate`] liveness backstop, which never trips in a healthy
//! run (see [`ResponseStatus::ShedDeadline`]).
//!
//! # Admission taxonomy
//!
//! Every offered query is answered and accounted exactly once:
//!
//! * **served** — executed, within its virtual budget.
//! * **degraded** — executed, over budget (the admission estimate is a
//!   lower bound under intersection, so a query can clear the gate and
//!   still run long).
//! * **shed (admission)** — the batched pre-execution estimate already
//!   exceeded the budget; answered from the estimate without touching
//!   posting lists.
//! * **shed (overload)** — the bounded queue (capacity
//!   [`ServeConfig::queue_capacity`]) was full on arrival. A window's
//!   arrivals still find the previous window's admitted queries queued,
//!   so an arrival is shed once the queries admitted earlier in its
//!   window plus those the previous window admitted reach the capacity.
//!   A closed-loop window holds at most `inflight` queries, so that sum
//!   stays below `2 × inflight` and only an open-loop burst overflows.
//! * **shed (deadline)** — the wall-clock backstop tripped mid-batch.
//!
//! Overload is checked before the budget, and
//! `queries == served + degraded + shed_admission + shed_overload +
//! shed_deadline` is asserted, not hoped for.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cca_core::ServingReport;
use cca_hash::md5;
use cca_par::{par_map_indexed, DeadlineGate};
use cca_search::{AggregationPolicy, Cluster, InvertedIndex, QueryEngine};
use cca_trace::Query;

/// Fixed virtual cost of any query (parse, plan, respond): 20 µs.
pub const SERVICE_BASE_NS: u64 = 20_000;
/// Virtual cost per queried keyword (posting-list lookup): 5 µs.
pub const SERVICE_WORD_NS: u64 = 5_000;
/// Virtual cost per communicated byte (~1 MB/s wire, deliberately slow
/// so placement quality dominates the latency distribution and a 1 ms
/// budget meaningfully sheds multi-kilobyte shipments).
pub const SERVICE_BYTE_NS: u64 = 1024;

/// Constant grace added to every batch's wall-clock liveness pool.
/// Latency is accounted in virtual time; the wall-clock gate only
/// exists to abandon a hung batch, so it must be far above scheduler
/// noise — a tripped gate leaks real time into the report.
const GATE_GRACE_MS: u64 = 1_000;

/// Admitted queries executed between two page-digest calls. A slice runs
/// as one `par_map_indexed` batch; then one [`md5::digest_many`] call on
/// the calling thread hashes its page lists, lanes of messages at once,
/// and drops them. So no `inflight` holds more page lists than the
/// default window of 64, which is one slice. Hashing the slice in
/// per-worker groups instead was slower at 2 threads (DESIGN.md §13).
const DIGEST_SLICE: usize = 64;

/// The virtual service time charged to a query with `words` keywords
/// moving `comm_bytes` bytes. Saturating: overflow clamps at `u64::MAX`
/// (the top histogram bucket) instead of wrapping.
#[must_use]
pub fn service_ns(words: usize, comm_bytes: u64) -> u64 {
    SERVICE_BASE_NS
        .saturating_add(SERVICE_WORD_NS.saturating_mul(words as u64))
        .saturating_add(SERVICE_BYTE_NS.saturating_mul(comm_bytes))
}

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission-window size: the closed loop takes arrivals in windows
    /// of this many queries, so at most this many are in flight at once
    /// and each dispatched batch holds at most this many. Must be at
    /// least 1.
    pub inflight: usize,
    /// Worker threads for batch execution (1 runs inline). Never changes
    /// the report.
    pub threads: usize,
    /// Per-query virtual latency budget in milliseconds. `None` disables
    /// budgets (nothing is shed or degraded). Also arms the wall-clock
    /// [`DeadlineGate`] backstop, pooled per batch.
    pub deadline_ms: Option<u64>,
    /// Open-loop mode: take arrivals in windows of this many queries
    /// regardless of completions, shedding arrivals that find the bounded
    /// queue (capacity [`ServeConfig::queue_capacity`]) full. `None` is
    /// the closed loop, whose windows of `inflight` queries never
    /// overflow the queue. Must be at least 1.
    pub burst: Option<usize>,
    /// Extra virtual nanoseconds charged to every query on top of
    /// [`service_ns`] — background interference (the live runtime charges
    /// each epoch's migration traffic here, spread per query, so moving
    /// bytes and serving bytes share one virtual-time ledger). Counted in
    /// the admission estimate, the executed latency, and every shed
    /// path's estimated latency alike, so the taxonomy stays consistent;
    /// `0` is byte-identical to the pre-overhead format.
    pub overhead_ns: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            inflight: 64,
            threads: 1,
            deadline_ms: None,
            burst: None,
            overhead_ns: 0,
        }
    }
}

impl ServeConfig {
    /// Bounded-queue capacity: twice the admission window, so a modest
    /// burst queues while a sustained overload sheds.
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.inflight.saturating_mul(2).max(1)
    }

    /// The per-query virtual budget in nanoseconds, if any.
    #[must_use]
    pub fn budget_ns(&self) -> Option<u64> {
        self.deadline_ms.map(|ms| ms.saturating_mul(1_000_000))
    }
}

/// How one query was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseStatus {
    /// Executed within budget.
    Served,
    /// Executed over budget.
    Degraded,
    /// Shed at admission (estimate exceeded the budget).
    ShedAdmission,
    /// Shed on arrival (queue full, open-loop mode).
    ShedOverload,
    /// Shed mid-batch by the wall-clock backstop.
    ShedDeadline,
}

impl ResponseStatus {
    /// Stable wire code, part of the digest format.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            ResponseStatus::Served => 0,
            ResponseStatus::Degraded => 1,
            ResponseStatus::ShedAdmission => 2,
            ResponseStatus::ShedOverload => 3,
            ResponseStatus::ShedDeadline => 4,
        }
    }

    /// True when the query was actually executed (pages are real).
    #[must_use]
    pub fn executed(self) -> bool {
        matches!(self, ResponseStatus::Served | ResponseStatus::Degraded)
    }
}

/// The answer to one offered query, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Arrival index of the query in the offered stream.
    pub index: usize,
    /// How the query was answered.
    pub status: ResponseStatus,
    /// Communication bytes: executed bytes when
    /// [`ResponseStatus::executed`], the admission estimate otherwise.
    pub bytes: u64,
    /// Virtual latency in nanoseconds (estimate-based for shed queries).
    pub latency_ns: u64,
    /// Number of result pages (0 for shed queries).
    pub pages: u64,
    /// MD5 over the result page ids in order (digest of the empty string
    /// for shed queries) — byte-identity of the payload, not just its
    /// size.
    pub pages_digest: [u8; 16],
}

impl Response {
    /// Appends the digest record of this response to `line`: one line of
    /// the stream the report digest is computed over.
    fn write_record(&self, line: &mut String) {
        let _ = writeln!(
            line,
            "{}\t{}\t{}\t{}\t{}\t{}",
            self.index,
            self.status.code(),
            self.bytes,
            self.latency_ns,
            self.pages,
            md5::Md5::hex(&self.pages_digest)
        );
    }
}

/// Everything a serving run produced: the deterministic report plus the
/// per-query responses and batching telemetry (the latter two are *not*
/// part of the report because batch sizes legitimately vary with
/// `inflight`).
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The persisted, determinism-contracted report.
    pub report: ServingReport,
    /// Per-query responses in arrival order (one per offered query).
    pub responses: Vec<Response>,
    /// Number of execution batches dispatched: the windows that admitted
    /// at least one query.
    pub batches: u64,
    /// Largest batch dispatched.
    pub max_batch: usize,
}

/// A response answered from the admission estimate alone (any shed path).
fn estimate_response(
    index: usize,
    status: ResponseStatus,
    words: usize,
    est_bytes: u64,
    overhead_ns: u64,
) -> Response {
    Response {
        index,
        status,
        bytes: est_bytes,
        latency_ns: service_ns(words, est_bytes).saturating_add(overhead_ns),
        pages: 0,
        pages_digest: md5::digest(b""),
    }
}

/// Serves `queries` against `index` placed on `cluster`.
///
/// Arrivals are taken in windows of [`ServeConfig::inflight`] queries
/// ([`ServeConfig::burst`] in the open loop). Each window is estimated
/// with one [`QueryEngine::probe_each`] call, admitted query by query in
/// arrival order (overload, then budget), and its admitted queries run as
/// one home-node-grouped [`par_map_indexed`] batch. See the module docs
/// for the determinism contract.
///
/// # Panics
///
/// Panics if `config.inflight` is 0 or `config.burst` is `Some(0)`.
#[must_use]
pub fn serve(
    index: &InvertedIndex,
    cluster: &Cluster,
    policy: AggregationPolicy,
    queries: &[Query],
    config: &ServeConfig,
) -> ServeOutcome {
    assert!(config.inflight > 0, "inflight window must be at least 1");
    assert!(config.burst != Some(0), "burst must be at least 1");
    let engine = QueryEngine::new(index, cluster, policy);
    let budget_ns = config.budget_ns();
    let capacity = config.queue_capacity();
    let overhead_ns = config.overhead_ns;
    let window = config.burst.unwrap_or(config.inflight);

    let mut responses: Vec<Response> = Vec::with_capacity(queries.len());
    // Queries the previous window admitted: still queued on arrival.
    let mut carried = 0usize;
    let mut batches = 0u64;
    let mut max_batch = 0usize;
    for chunk in queries.chunks(window) {
        let first = responses.len();
        let estimates = engine.probe_each(chunk);
        let mut answers: Vec<Option<Response>> = Vec::with_capacity(chunk.len());
        let mut admitted: Vec<usize> = Vec::with_capacity(chunk.len());
        for (k, (q, &est_bytes)) in chunk.iter().zip(&estimates).enumerate() {
            let words = q.words.len();
            let shed = if carried + admitted.len() >= capacity {
                Some(ResponseStatus::ShedOverload)
            } else if budget_ns
                .is_some_and(|b| service_ns(words, est_bytes).saturating_add(overhead_ns) > b)
            {
                Some(ResponseStatus::ShedAdmission)
            } else {
                admitted.push(k);
                None
            };
            answers.push(
                shed.map(|status| {
                    estimate_response(first + k, status, words, est_bytes, overhead_ns)
                }),
            );
        }
        carried = admitted.len();

        // Execute the admitted queries grouped by home node, so co-located
        // queries run adjacently (stable sort: arrival order within a node).
        admitted.sort_by_key(|&k| engine.home_node(&chunk[k]));
        batches += u64::from(!admitted.is_empty());
        max_batch = max_batch.max(admitted.len());
        // Wall-clock liveness backstop, pooled over the batch. The pool is
        // deliberately generous — a constant grace term plus deadline_ms
        // per query — because latency accounting is done entirely in
        // virtual time: this gate exists only to shed the remainder of a
        // genuinely hung batch instead of blocking forever, and must never
        // trip on scheduler noise (a tripped gate would leak wall-clock
        // nondeterminism into the report).
        let gate = DeadlineGate::new(config.deadline_ms.map(|ms| {
            Instant::now()
                + Duration::from_millis(
                    GATE_GRACE_MS.saturating_add(ms.saturating_mul(admitted.len() as u64)),
                )
        }));
        // Each executed response comes back with its page bytes, which
        // its slice's `digest_many` call turns into `pages_digest`.
        let execute = |k: usize| -> (Response, Vec<u8>) {
            let words = chunk[k].words.len();
            if gate.expired() {
                let shed = estimate_response(
                    first + k,
                    ResponseStatus::ShedDeadline,
                    words,
                    estimates[k],
                    overhead_ns,
                );
                return (shed, Vec::new());
            }
            let r = engine.execute(&chunk[k]);
            let mut page_bytes = Vec::with_capacity(r.pages.len() * 8);
            for p in &r.pages {
                page_bytes.extend_from_slice(&p.0.to_le_bytes());
            }
            let latency_ns = service_ns(words, r.comm_bytes).saturating_add(overhead_ns);
            let status = match budget_ns {
                Some(b) if latency_ns > b => ResponseStatus::Degraded,
                _ => ResponseStatus::Served,
            };
            let response = Response {
                index: first + k,
                status,
                bytes: r.comm_bytes,
                latency_ns,
                pages: r.pages.len() as u64,
                pages_digest: [0; 16],
            };
            (response, page_bytes)
        };
        for slice in admitted.chunks(DIGEST_SLICE) {
            let (executed, pages): (Vec<Response>, Vec<Vec<u8>>) =
                par_map_indexed(config.threads, slice.len(), |j| execute(slice[j]))
                    .into_iter()
                    .unzip();
            let messages: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
            for ((&k, mut response), digest) in
                slice.iter().zip(executed).zip(md5::digest_many(&messages))
            {
                response.pages_digest = digest;
                answers[k] = Some(response);
            }
        }
        responses.extend(
            answers
                .into_iter()
                .map(|r| r.expect("every query of the window is answered")),
        );
    }

    let report = build_report(&responses);
    debug_assert!(report.counters_consistent());
    ServeOutcome {
        report,
        responses,
        batches,
        max_batch,
    }
}

/// Folds the arrival-ordered responses into the persisted report.
fn build_report(responses: &[Response]) -> ServingReport {
    let mut report = ServingReport {
        queries: responses.len() as u64,
        ..ServingReport::default()
    };
    let mut hasher = md5::Md5::new();
    let mut line = String::new();
    for r in responses {
        line.clear();
        r.write_record(&mut line);
        hasher.update(line.as_bytes());
        match r.status {
            ResponseStatus::Served => report.served += 1,
            ResponseStatus::Degraded => report.degraded += 1,
            ResponseStatus::ShedAdmission => report.shed_admission += 1,
            ResponseStatus::ShedOverload => report.shed_overload += 1,
            ResponseStatus::ShedDeadline => report.shed_deadline += 1,
        }
        if r.status.executed() {
            report.executed_bytes += r.bytes;
            report.histogram.record(r.latency_ns);
        } else {
            report.estimated_bytes += r.bytes;
        }
    }
    report.digest = md5::Md5::hex(&hasher.finalize());
    report.refresh_quantiles();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use cca_core::greedy_placement;
    use cca_trace::TraceConfig;

    fn fixture() -> (Pipeline, Cluster, Vec<Query>) {
        let mut cfg = PipelineConfig::new(TraceConfig::tiny(), 4);
        cfg.seed = 9;
        let p = Pipeline::build(&cfg);
        let placement = greedy_placement(&p.problem);
        let cluster = p.cluster_for(&placement);
        let queries = p.workload.queries.queries.clone();
        (p, cluster, queries)
    }

    #[test]
    fn closed_loop_serves_everything_identically_to_serial_execute() {
        let (p, cluster, queries) = fixture();
        let engine = QueryEngine::new(&p.index, &cluster, p.config().aggregation);
        let out = serve(
            &p.index,
            &cluster,
            p.config().aggregation,
            &queries,
            &ServeConfig::default(),
        );
        assert!(out.report.counters_consistent());
        assert_eq!(out.report.queries, queries.len() as u64);
        assert_eq!(out.report.served, queries.len() as u64);
        assert!(!out.report.degraded());
        for (i, (resp, q)) in out.responses.iter().zip(&queries).enumerate() {
            let serial = engine.execute(q);
            assert_eq!(resp.index, i);
            assert_eq!(resp.status, ResponseStatus::Served);
            assert_eq!(resp.bytes, serial.comm_bytes, "query {i}");
            assert_eq!(resp.pages, serial.pages.len() as u64, "query {i}");
            assert_eq!(
                resp.latency_ns,
                service_ns(q.words.len(), serial.comm_bytes)
            );
            let page_bytes: Vec<u8> = serial
                .pages
                .iter()
                .flat_map(|p| p.0.to_le_bytes())
                .collect();
            assert_eq!(resp.pages_digest, md5::digest(&page_bytes), "query {i}");
        }
    }

    #[test]
    fn report_is_identical_across_inflight_and_threads() {
        let (p, cluster, queries) = fixture();
        // The whole-stream window spans several digest slices.
        assert!(queries.len() > 2 * DIGEST_SLICE);
        let base = serve(
            &p.index,
            &cluster,
            p.config().aggregation,
            &queries,
            &ServeConfig {
                inflight: 1,
                threads: 1,
                ..ServeConfig::default()
            },
        );
        for (inflight, threads) in [(7, 2), (64, 4), (queries.len().max(1), 3), (usize::MAX, 2)] {
            let out = serve(
                &p.index,
                &cluster,
                p.config().aggregation,
                &queries,
                &ServeConfig {
                    inflight,
                    threads,
                    ..ServeConfig::default()
                },
            );
            assert_eq!(
                out.report, base.report,
                "inflight {inflight} threads {threads}"
            );
            assert_eq!(out.responses, base.responses);
        }
        // Batching telemetry is where the window size is allowed to show.
        assert_eq!(base.max_batch, 1);
    }

    #[test]
    fn zero_deadline_sheds_every_query_at_admission() {
        let (p, cluster, queries) = fixture();
        let out = serve(
            &p.index,
            &cluster,
            p.config().aggregation,
            &queries,
            &ServeConfig {
                deadline_ms: Some(0),
                ..ServeConfig::default()
            },
        );
        assert!(out.report.counters_consistent());
        assert_eq!(out.report.shed_admission, queries.len() as u64);
        assert_eq!(out.report.served + out.report.degraded, 0);
        assert_eq!(out.batches, 0, "nothing reaches execution");
        assert!(out.report.degraded());
    }

    #[test]
    fn open_loop_overload_sheds_but_accounts_exactly() {
        let (p, cluster, queries) = fixture();
        let config = ServeConfig {
            inflight: 4,
            burst: Some(queries.len()),
            ..ServeConfig::default()
        };
        let out = serve(
            &p.index,
            &cluster,
            p.config().aggregation,
            &queries,
            &config,
        );
        assert!(out.report.counters_consistent());
        assert_eq!(out.responses.len(), queries.len());
        assert!(out.report.shed_overload > 0, "10x capacity must overflow");
        assert_eq!(
            out.report.served + out.report.shed_overload,
            queries.len() as u64
        );
    }

    #[test]
    #[should_panic(expected = "burst must be at least 1")]
    fn zero_burst_is_rejected_up_front() {
        let (p, cluster, queries) = fixture();
        let _ = serve(
            &p.index,
            &cluster,
            p.config().aggregation,
            &queries,
            &ServeConfig {
                burst: Some(0),
                ..ServeConfig::default()
            },
        );
    }

    #[test]
    fn overhead_shifts_every_latency_and_tightens_admission() {
        let (p, cluster, queries) = fixture();
        let base = serve(
            &p.index,
            &cluster,
            p.config().aggregation,
            &queries,
            &ServeConfig::default(),
        );
        let shifted = serve(
            &p.index,
            &cluster,
            p.config().aggregation,
            &queries,
            &ServeConfig {
                overhead_ns: 1_000,
                ..ServeConfig::default()
            },
        );
        for (b, s) in base.responses.iter().zip(&shifted.responses) {
            assert_eq!(s.latency_ns, b.latency_ns + 1_000);
            assert_eq!(s.bytes, b.bytes, "overhead must not change the payload");
        }
        // Overhead above the whole budget closes the admission gate.
        let shed = serve(
            &p.index,
            &cluster,
            p.config().aggregation,
            &queries,
            &ServeConfig {
                deadline_ms: Some(1),
                overhead_ns: 2_000_000,
                ..ServeConfig::default()
            },
        );
        assert!(shed.report.counters_consistent());
        assert_eq!(shed.report.shed_admission, queries.len() as u64);
    }

    #[test]
    fn empty_stream_is_a_clean_noop() {
        let (p, cluster, _) = fixture();
        let out = serve(
            &p.index,
            &cluster,
            p.config().aggregation,
            &[],
            &ServeConfig::default(),
        );
        assert!(out.report.counters_consistent());
        assert_eq!(out.report.queries, 0);
        assert_eq!(out.batches, 0);
        assert!(!out.report.degraded());
    }
}
