//! Serving-side accounting: the dyadic latency histogram and the
//! end-of-run serving report (DESIGN.md §13).
//!
//! The serving front (the root crate's `serve` module) answers
//! queries under a **virtual-time** cost model so its report is a pure
//! function of the workload and the placement — independent of thread
//! count, shard count, and admission-window size. This module holds the
//! placement-system side of that contract: the histogram whose bucket
//! bounds are powers of two (so every persisted value is an exact `u64`
//! and the report round-trips bit for bit through
//! [`crate::persist::format_report`]) and the counter partition
//! mirroring the controller's gate accounting — every offered query is
//! accounted served, degraded, or shed; nothing is dropped silently.

use std::fmt::Write as _;

/// Number of histogram buckets: bucket 0 holds exact-zero latencies and
/// bucket `i ≥ 1` holds latencies in `[2^(i-1), 2^i)`, so 64 dyadic
/// buckets cover the whole `u64` range.
pub const NUM_BUCKETS: usize = 65;

/// A latency histogram with dyadic (power-of-two) bucket bounds.
///
/// Bucket bounds are chosen for bit-exact persistence: every quantile
/// this histogram reports is a bucket **upper bound** — an integer, not
/// an interpolation — so `p50/p95/p99` survive a text round-trip
/// unchanged and are identical on every host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; NUM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; NUM_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index of `latency_ns`: 0 for an exact zero, otherwise
    /// `1 + floor(log2(latency_ns))` (the position of the highest set
    /// bit), so bucket `i ≥ 1` covers `[2^(i-1), 2^i)`.
    #[must_use]
    pub fn bucket_of(latency_ns: u64) -> usize {
        if latency_ns == 0 {
            0
        } else {
            64 - latency_ns.leading_zeros() as usize
        }
    }

    /// The inclusive upper bound of bucket `i` (the largest latency the
    /// bucket can hold). Bucket 0 is exactly zero; bucket 64 saturates
    /// at `u64::MAX`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_BUCKETS`.
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        assert!(i < NUM_BUCKETS, "bucket {i} out of range");
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one latency.
    pub fn record(&mut self, latency_ns: u64) {
        self.counts[Self::bucket_of(latency_ns)] += 1;
    }

    /// Total recorded samples.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Count in bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_BUCKETS`.
    #[must_use]
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Iterator over `(bucket, count)` for every non-empty bucket, in
    /// ascending bucket order — the persistence order.
    pub fn nonempty(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Adds `count` samples to bucket `i` (used by the report reader).
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_BUCKETS`.
    pub fn add_bucket(&mut self, i: usize, count: u64) {
        assert!(i < NUM_BUCKETS, "bucket {i} out of range");
        self.counts[i] += count;
    }

    /// Adds every bucket of `other` into `self` (bucket-wise sum).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
    }

    /// The `q`-quantile as a bucket upper bound: the smallest bucket
    /// bound below which at least `ceil(q × total)` samples fall.
    /// Returns 0 for an empty histogram. `q` is clamped to `[0, 1]`.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * total) with a floor of 1: the rank of the sample.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        Self::bucket_upper_bound(NUM_BUCKETS - 1)
    }
}

/// End-of-run account of one serving run — the serving analogue of
/// [`crate::controller::ControllerReport`].
///
/// The counters partition the offered queries exactly:
///
/// ```text
/// queries == served + degraded + shed_admission + shed_overload + shed_deadline
/// ```
///
/// Every field is either a `u64` or a hex digest, so the v1 text format
/// ([`crate::persist::format_report`]) round-trips bit for bit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServingReport {
    /// Queries offered to the admission queue.
    pub queries: u64,
    /// Queries executed in full within their latency budget.
    pub served: u64,
    /// Queries executed in full but over their latency budget (the
    /// admission estimate is a lower bound, so a query can clear the
    /// gate and still run long).
    pub degraded: u64,
    /// Queries shed at admission: the batched pre-execution estimate
    /// already exceeded the per-query budget, so the query was answered
    /// from the estimate alone, without touching posting lists.
    pub shed_admission: u64,
    /// Queries shed because the bounded admission queue was full when
    /// they arrived (open-loop overload only; a closed loop never
    /// overflows).
    pub shed_overload: u64,
    /// Queries shed mid-batch by the wall-clock `DeadlineGate` liveness
    /// backstop (never silently dropped — answered from the estimate
    /// and counted here).
    pub shed_deadline: u64,
    /// Total communication bytes of fully executed queries.
    pub executed_bytes: u64,
    /// Total estimated bytes of shed queries (their degraded answers).
    pub estimated_bytes: u64,
    /// Virtual-latency p50 (a dyadic bucket upper bound, in ns).
    pub p50_ns: u64,
    /// Virtual-latency p95 (a dyadic bucket upper bound, in ns).
    pub p95_ns: u64,
    /// Virtual-latency p99 (a dyadic bucket upper bound, in ns).
    pub p99_ns: u64,
    /// Histogram of virtual service latencies of executed queries.
    pub histogram: LatencyHistogram,
    /// MD5 over every response record in arrival order — byte-identity
    /// of the full response stream across threads, shards, and
    /// admission windows.
    pub digest: String,
}

impl ServingReport {
    /// True when the shed/served counters exactly partition the offered
    /// queries and the histogram holds one sample per executed query.
    #[must_use]
    pub fn counters_consistent(&self) -> bool {
        self.queries
            == self.served
                + self.degraded
                + self.shed_admission
                + self.shed_overload
                + self.shed_deadline
            && self.histogram.total() == self.served + self.degraded
    }

    /// True when any query was answered degraded or shed — the exit-2
    /// condition of the `cca serve` taxonomy.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degraded + self.shed_admission + self.shed_overload + self.shed_deadline > 0
    }

    /// Recomputes the persisted quantiles from the histogram.
    pub fn refresh_quantiles(&mut self) {
        self.p50_ns = self.histogram.quantile_upper_bound(0.50);
        self.p95_ns = self.histogram.quantile_upper_bound(0.95);
        self.p99_ns = self.histogram.quantile_upper_bound(0.99);
    }

    /// Human-readable summary (stderr companion of the machine report).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "served {}/{} queries ({} degraded, {} shed: {} admission / {} overload / {} deadline)",
            self.served,
            self.queries,
            self.degraded,
            self.shed_admission + self.shed_overload + self.shed_deadline,
            self.shed_admission,
            self.shed_overload,
            self.shed_deadline,
        );
        let _ = writeln!(
            out,
            "virtual latency p50/p95/p99: {}/{}/{} ns; executed {} bytes ({} estimated on shed paths)",
            self.p50_ns, self.p95_ns, self.p99_ns, self.executed_bytes, self.estimated_bytes
        );
        out
    }
}

/// End-of-run account of one **live** run — serving and the drift
/// controller in one epoch-structured loop (DESIGN.md §14). Aggregates
/// the per-epoch [`ServingReport`]s, records how much migration traffic
/// was interleaved and how it was paced, and splits the run into three
/// windows around the migration activity:
///
/// * **pre** — epochs strictly before the first epoch that shipped
///   migration bytes (with no migration at all, the whole run);
/// * **mid** — epochs from the first through the last shipping epoch;
/// * **post** — epochs strictly after the last shipping epoch.
///
/// `pre` vs `post` shipped-bytes-per-query is the paper's headline
/// measured end to end under load; the per-window histograms expose the
/// latency impact of the interleaved migration traffic.
///
/// Every field is a `u64`, a `bool`, or a hex digest, so the v1 text
/// format ([`crate::persist::format_report`]) round-trips bit for
/// bit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LiveReport {
    /// Epochs driven.
    pub epochs: u64,
    /// Queries offered across all epochs.
    pub queries: u64,
    /// Queries executed in full within their latency budget.
    pub served: u64,
    /// Queries executed in full but over budget.
    pub degraded: u64,
    /// Queries shed at admission (estimate over budget).
    pub shed_admission: u64,
    /// Queries shed by a full admission queue.
    pub shed_overload: u64,
    /// Queries shed by the wall-clock liveness backstop.
    pub shed_deadline: u64,
    /// Communication bytes of fully executed queries.
    pub executed_bytes: u64,
    /// Estimated bytes of shed queries.
    pub estimated_bytes: u64,
    /// Controller gate evaluations that reached a verdict.
    pub evaluated: u64,
    /// Migrations the controller accepted (and staged).
    pub migrations: u64,
    /// Staged migrations abandoned because a slice stalled.
    pub abandoned_migrations: u64,
    /// Epochs that shipped at least one migration byte.
    pub migration_epochs: u64,
    /// Migration bytes shipped across the run.
    pub migrated_bytes: u64,
    /// The largest single-epoch migration traffic — must never exceed
    /// [`migration_budget`](Self::migration_budget).
    pub max_epoch_migrated_bytes: u64,
    /// The per-epoch migration byte budget the run was configured with.
    pub migration_budget: u64,
    /// Epochs in the pre-migration window.
    pub pre_epochs: u64,
    /// Executed (served + degraded) queries in the pre window.
    pub pre_queries: u64,
    /// Communication bytes of executed queries in the pre window.
    pub pre_executed_bytes: u64,
    /// Epochs in the post-migration window.
    pub post_epochs: u64,
    /// Executed queries in the post window.
    pub post_queries: u64,
    /// Communication bytes of executed queries in the post window.
    pub post_executed_bytes: u64,
    /// Whole-run virtual-latency p50 (dyadic bucket upper bound, ns).
    pub p50_ns: u64,
    /// Whole-run virtual-latency p95.
    pub p95_ns: u64,
    /// Whole-run virtual-latency p99.
    pub p99_ns: u64,
    /// Whether the final placement fits the surviving capacities under
    /// the controller's slack.
    pub final_feasible: bool,
    /// MD5 over `epoch\tmigrated_bytes\t<epoch serving digest>` lines in
    /// epoch order — byte-identity of the whole interleaved run across
    /// threads, shards, and admission windows.
    pub digest: String,
    /// Executed-query latencies in the pre window.
    pub pre_histogram: LatencyHistogram,
    /// Executed-query latencies in the mid (migration) window.
    pub mid_histogram: LatencyHistogram,
    /// Executed-query latencies in the post window.
    pub post_histogram: LatencyHistogram,
}

impl LiveReport {
    /// True when the serving counters exactly partition the offered
    /// stream even with migrations interleaved, the three window
    /// histograms partition the executed queries, and the per-window
    /// query scalars match their histograms.
    #[must_use]
    pub fn counters_consistent(&self) -> bool {
        let executed = self.served + self.degraded;
        self.queries == executed + self.shed_admission + self.shed_overload + self.shed_deadline
            && self.pre_histogram.total() + self.mid_histogram.total() + self.post_histogram.total()
                == executed
            && self.pre_histogram.total() == self.pre_queries
            && self.post_histogram.total() == self.post_queries
    }

    /// True when the per-epoch pacing contract held: no epoch shipped
    /// more than the configured budget.
    #[must_use]
    pub fn within_budget(&self) -> bool {
        self.max_epoch_migrated_bytes <= self.migration_budget
    }

    /// Mean shipped bytes per executed query in the pre-migration
    /// window; `None` when the window executed nothing.
    #[must_use]
    pub fn pre_bytes_per_query(&self) -> Option<f64> {
        (self.pre_queries > 0).then(|| self.pre_executed_bytes as f64 / self.pre_queries as f64)
    }

    /// Mean shipped bytes per executed query in the post-migration
    /// window; `None` when the window executed nothing.
    #[must_use]
    pub fn post_bytes_per_query(&self) -> Option<f64> {
        (self.post_queries > 0).then(|| self.post_executed_bytes as f64 / self.post_queries as f64)
    }

    /// True when both windows executed queries and the post-migration
    /// window ships strictly fewer bytes per query — the end-to-end
    /// payoff the migration was accepted for.
    #[must_use]
    pub fn improved(&self) -> bool {
        matches!(
            (self.pre_bytes_per_query(), self.post_bytes_per_query()),
            (Some(pre), Some(post)) if post < pre
        )
    }

    /// True when any query was answered degraded or shed, or a staged
    /// migration was abandoned — the exit-2 condition of the `cca live`
    /// taxonomy.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degraded + self.shed_admission + self.shed_overload + self.shed_deadline > 0
            || self.abandoned_migrations > 0
    }

    /// Recomputes the whole-run quantiles from the merged window
    /// histograms.
    pub fn refresh_quantiles(&mut self) {
        let mut merged = self.pre_histogram.clone();
        merged.merge(&self.mid_histogram);
        merged.merge(&self.post_histogram);
        self.p50_ns = merged.quantile_upper_bound(0.50);
        self.p95_ns = merged.quantile_upper_bound(0.95);
        self.p99_ns = merged.quantile_upper_bound(0.99);
    }

    /// Human-readable summary (stderr companion of the machine report).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} epochs: served {}/{} queries ({} degraded, {} shed: {} admission / {} overload / {} deadline)",
            self.epochs,
            self.served,
            self.queries,
            self.degraded,
            self.shed_admission + self.shed_overload + self.shed_deadline,
            self.shed_admission,
            self.shed_overload,
            self.shed_deadline,
        );
        let _ = writeln!(
            out,
            "migrations: {} staged, {} abandoned; {} bytes over {} epochs (max {}/epoch, budget {})",
            self.migrations,
            self.abandoned_migrations,
            self.migrated_bytes,
            self.migration_epochs,
            self.max_epoch_migrated_bytes,
            self.migration_budget,
        );
        match (self.pre_bytes_per_query(), self.post_bytes_per_query()) {
            (Some(pre), Some(post)) => {
                let _ = writeln!(
                    out,
                    "shipped bytes/query: {pre:.1} pre-migration -> {post:.1} post-migration ({:+.1}%)",
                    (post / pre - 1.0) * 100.0
                );
            }
            (Some(pre), None) => {
                let _ = writeln!(
                    out,
                    "shipped bytes/query: {pre:.1} (no post-migration window)"
                );
            }
            _ => {}
        }
        let _ = writeln!(
            out,
            "virtual latency p50/p95/p99: {}/{}/{} ns; final feasible {}",
            self.p50_ns, self.p95_ns, self.p99_ns, self.final_feasible
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_dyadic_and_exhaustive() {
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 1);
        assert_eq!(LatencyHistogram::bucket_of(2), 2);
        assert_eq!(LatencyHistogram::bucket_of(3), 2);
        assert_eq!(LatencyHistogram::bucket_of(4), 3);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), 64);
        for i in 1..NUM_BUCKETS {
            let hi = LatencyHistogram::bucket_upper_bound(i);
            assert_eq!(LatencyHistogram::bucket_of(hi), i, "upper bound of {i}");
            if i < 64 {
                assert_eq!(
                    LatencyHistogram::bucket_of(hi + 1),
                    i + 1,
                    "bound {i} is inclusive"
                );
            }
        }
    }

    #[test]
    fn record_and_quantiles() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile_upper_bound(0.5), 0, "empty histogram");
        // 90 fast samples (bucket of 100 = 7, bound 127), 10 slow
        // (bucket of 10_000 = 14, bound 16383).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.quantile_upper_bound(0.50), 127);
        assert_eq!(h.quantile_upper_bound(0.90), 127);
        assert_eq!(h.quantile_upper_bound(0.95), 16383);
        assert_eq!(h.quantile_upper_bound(1.0), 16383);
        assert_eq!(h.quantile_upper_bound(0.0), 127, "rank floors at 1");
        let nonempty: Vec<_> = h.nonempty().collect();
        assert_eq!(nonempty, vec![(7, 90), (14, 10)]);
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.count(0), 1);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn report_partition_invariant() {
        let mut r = ServingReport {
            queries: 10,
            served: 6,
            degraded: 1,
            shed_admission: 2,
            shed_overload: 1,
            shed_deadline: 0,
            ..ServingReport::default()
        };
        for _ in 0..7 {
            r.histogram.record(50);
        }
        assert!(r.counters_consistent());
        assert!(r.degraded());
        r.served += 1;
        assert!(!r.counters_consistent(), "partition must be exact");
    }

    #[test]
    fn refresh_quantiles_reads_the_histogram() {
        let mut r = ServingReport::default();
        r.histogram.record(1000);
        r.refresh_quantiles();
        assert_eq!(r.p50_ns, LatencyHistogram::bucket_upper_bound(10));
        assert_eq!(r.p50_ns, 1023);
        assert_eq!(r.p99_ns, 1023);
        assert!(r.summary().contains("p50/p95/p99"));
    }

    #[test]
    fn merge_sums_bucket_wise() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(100);
        a.record(100);
        b.record(100);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.nonempty().collect::<Vec<_>>(), vec![(7, 3), (14, 1)]);
    }

    #[test]
    fn live_report_partition_and_window_invariants() {
        let mut r = LiveReport {
            epochs: 3,
            queries: 12,
            served: 8,
            degraded: 1,
            shed_admission: 2,
            shed_overload: 1,
            shed_deadline: 0,
            pre_queries: 4,
            post_queries: 3,
            migration_budget: 64,
            max_epoch_migrated_bytes: 64,
            ..LiveReport::default()
        };
        for _ in 0..4 {
            r.pre_histogram.record(50);
        }
        for _ in 0..2 {
            r.mid_histogram.record(50);
        }
        for _ in 0..3 {
            r.post_histogram.record(50);
        }
        assert!(r.counters_consistent());
        assert!(r.within_budget());
        assert!(r.degraded(), "shed queries mark the run degraded");
        r.max_epoch_migrated_bytes = 65;
        assert!(
            !r.within_budget(),
            "one over-budget epoch must trip the gate"
        );
        r.max_epoch_migrated_bytes = 64;
        r.pre_queries += 1;
        assert!(
            !r.counters_consistent(),
            "window scalars must match histograms"
        );
    }

    #[test]
    fn live_report_improvement_requires_both_windows() {
        let mut r = LiveReport {
            pre_queries: 10,
            pre_executed_bytes: 1000,
            ..LiveReport::default()
        };
        assert_eq!(r.pre_bytes_per_query(), Some(100.0));
        assert_eq!(r.post_bytes_per_query(), None);
        assert!(!r.improved(), "no post window: no improvement claim");
        r.post_queries = 10;
        r.post_executed_bytes = 800;
        assert!(r.improved());
        r.post_executed_bytes = 1000;
        assert!(!r.improved(), "equality is not strict improvement");
        assert!(r.summary().contains("shipped bytes/query"));
    }

    #[test]
    fn live_report_abandoned_migration_marks_degraded() {
        let r = LiveReport {
            abandoned_migrations: 1,
            ..LiveReport::default()
        };
        assert!(r.degraded());
        assert!(!LiveReport::default().degraded());
    }
}
