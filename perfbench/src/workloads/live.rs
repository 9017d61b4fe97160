//! `live-shift`: the regime-shift replay of the live runtime.
//!
//! Set-up builds the paper-scaled pipeline on 10 nodes. The operation is
//! one `run_live`: the query model drifts 24 steps (σ 0.25) before the
//! first epoch (January placement, February traffic), then 49 epochs of
//! 1024 queries are served. The controller evaluates once, at epoch 25,
//! over one scope with a 1000-epoch horizon, so the regime shift is
//! priced and migrated; the migration ships at most 1 MiB per epoch.
//! There is no deadline: with one, shed queries starve the controller and
//! nothing migrates. This is the only workload where the controller gate,
//! migration pacing and cluster rebuilds run, and it serves with writes
//! (migrations) beside reads.

use std::time::Instant;

use cca::algo::controller::ControllerConfig;
use cca::algo::{greedy_placement, EpochOutcome, LatencyHistogram, ReplicaPlacement};
use cca::online::epoch_observation;
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::runtime::{run_live, run_live_with, EpochRecord, LiveConfig, LiveOutcome};
use cca::serve::{serve, ServeConfig};
use cca::trace::{QueryLog, TraceConfig};
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;

use super::serve::{
    build_pipeline, pipeline_config, pipeline_layer_metrics, serve_layer_metrics, traced_serve,
    DATASET_SEED,
};
use super::{graph_kernel_metrics, time_ms};
use crate::spans::Recorder;
use crate::{stats, Metric, Quality, Scale, Workload, THREADS};

/// The `live-shift` workload.
#[derive(Debug, Clone)]
pub struct LiveShift {
    trace: TraceConfig,
    preset: &'static str,
    nodes: usize,
    epochs: u64,
    queries_per_epoch: usize,
    warm_drift_steps: u64,
    drift_sigma: f64,
    migration_budget: u64,
}

impl LiveShift {
    /// The workload at `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => LiveShift {
                trace: TraceConfig::paper_scaled(),
                preset: "paper_scaled",
                nodes: 10,
                epochs: 49,
                queries_per_epoch: 1024,
                warm_drift_steps: 24,
                drift_sigma: 0.25,
                migration_budget: 1 << 20,
            },
            Scale::Smoke => LiveShift {
                trace: TraceConfig::small(),
                preset: "small",
                nodes: 6,
                epochs: 49,
                queries_per_epoch: 256,
                warm_drift_steps: 24,
                drift_sigma: 0.25,
                migration_budget: 16 * 1024,
            },
        }
    }

    fn live_config(&self, seed: u64) -> LiveConfig {
        LiveConfig {
            epochs: self.epochs,
            queries_per_epoch: self.queries_per_epoch,
            drift_sigma: self.drift_sigma,
            drift_epochs: Some(0),
            warm_drift_steps: self.warm_drift_steps,
            seed,
            inflight: 64,
            threads: THREADS,
            deadline_ms: None,
            migration_budget: self.migration_budget,
            replicas: 1,
            domains: None,
            // One scope evaluated once, mid-run, with a long horizon: the
            // default four scopes every 16 epochs, amortized over the run,
            // migrate on fewer than one seed in five here, and a varying
            // number of migrations per seed swamps the timings.
            controller: ControllerConfig {
                threads: THREADS,
                scope_count: 1,
                evaluate_every: 25,
                horizon_epochs: 1000,
                ..ControllerConfig::default()
            },
        }
    }
}

/// Generated inputs: the pipeline and live-run configurations.
#[derive(Debug, Clone)]
pub struct Input {
    /// Pipeline configuration over the fixed data set.
    pub config: PipelineConfig,
    /// The replay's configuration, seeded with the fixed scenario seed.
    pub live: LiveConfig,
}

/// The kind of an epoch, by what it spent its time on.
fn epoch_span(record: &EpochRecord) -> &'static str {
    if record.migrated_bytes > 0 {
        "migrate.epoch"
    } else if record.outcome != EpochOutcome::Idle {
        "controller.epoch"
    } else {
        "runtime.epoch"
    }
}

impl Workload for LiveShift {
    type Input = Input;
    type System = Pipeline;
    type Output = LiveOutcome;

    fn name(&self) -> &'static str {
        "live-shift"
    }

    fn instance(&self) -> String {
        format!(
            "trace={} dataset_seed={DATASET_SEED} nodes={} epochs={} queries_per_epoch={} \
             shift=warm_drift_steps {} sigma {} migration_budget={} inflight=64 no deadline \
             controller: 1 scope, evaluated at epoch 25, horizon 1000",
            self.preset,
            self.nodes,
            self.epochs,
            self.queries_per_epoch,
            self.warm_drift_steps,
            self.drift_sigma,
            self.migration_budget
        )
    }

    /// The replay is one fixed scenario: the run's seed draws nothing.
    /// Which placement the controller reaches, and so the run's bytes
    /// and time, depends strongly on the drift and sampling seed (op time
    /// and bytes per query spread by 20% and 10% across seeds), more
    /// than the changes the benchmark must resolve.
    fn generate(&self, _seed: u64) -> Input {
        Input {
            config: pipeline_config(&self.trace, self.nodes),
            live: self.live_config(DATASET_SEED),
        }
    }

    fn setup(&self, input: &Input, rec: &mut Recorder) -> Pipeline {
        build_pipeline(&input.config, rec)
    }

    fn op(&self, input: &Input, pipeline: &Pipeline) -> LiveOutcome {
        run_live(pipeline, &input.live)
    }

    fn check(&self, input: &Input, _: &Pipeline, out: &LiveOutcome) -> Result<Quality, String> {
        let r = &out.report;
        let offered = input.live.epochs * input.live.queries_per_epoch as u64;
        if !r.counters_consistent() || r.queries != offered {
            return Err(format!(
                "counters do not partition {offered} queries: {}",
                r.summary()
            ));
        }
        if !r.within_budget() || r.max_epoch_migrated_bytes > input.live.migration_budget {
            return Err(format!(
                "an epoch shipped {} bytes over the {}-byte budget",
                r.max_epoch_migrated_bytes, input.live.migration_budget
            ));
        }
        if !out.controller.counters_consistent() || !out.controller.final_feasible {
            return Err(format!(
                "controller account inconsistent: {}",
                out.controller.summary()
            ));
        }
        let mut hist = LatencyHistogram::new();
        for window in [&r.pre_histogram, &r.mid_histogram, &r.post_histogram] {
            hist.merge(window);
        }
        let executed = r.served + r.degraded;
        if hist.total() != executed {
            return Err("the window histograms do not hold every executed query".into());
        }
        let p50 = stats::histogram_percentile_us(&hist, 0.5).ok_or("nothing executed")?;
        let p999 = stats::histogram_percentile_us(&hist, 0.999).ok_or("nothing executed")?;
        let bytes_per_query = r.executed_bytes as f64 / executed as f64;
        let mut figures = vec![
            Metric::new("lat_p50_us", p50, "us", executed as usize),
            Metric::new("lat_p999_us", p999, "us", executed as usize),
            Metric::new("bytes_per_query", bytes_per_query, "B", executed as usize),
        ];
        // Windows around the shipping epochs; the post window is empty
        // when nothing migrated or the last slice shipped in the last
        // epoch.
        for (name, window, queries) in [
            (
                "pre_bytes_per_query",
                r.pre_bytes_per_query(),
                r.pre_queries,
            ),
            (
                "post_bytes_per_query",
                r.post_bytes_per_query(),
                r.post_queries,
            ),
        ] {
            if let Some(v) = window {
                figures.push(Metric::new(name, v, "B", queries as usize));
            }
        }
        figures.push(Metric::new(
            "migrated_mb",
            r.migrated_bytes as f64 / 1e6,
            "MB",
            1,
        ));
        figures.push(Metric::new(
            "failed_frac",
            (r.queries - r.served) as f64 / r.queries as f64,
            "ratio",
            r.queries as usize,
        ));
        Ok(Quality {
            comm_per_op: bytes_per_query,
            ok_frac: r.served as f64 / r.queries as f64,
            queries: Some(r.queries),
            fingerprint: format!(
                "{} digest={} controller={:?} placement={}",
                r.summary(),
                r.digest,
                out.controller,
                super::placement_digest(&[out.placement.as_slice()])
            ),
            figures,
        })
    }

    /// `run_live_with` with an observer that closes one span per epoch,
    /// named by what the epoch did: shipped a migration slice
    /// (`migrate.epoch`), evaluated the controller gate
    /// (`controller.epoch`) or only served (`runtime.epoch`). The first
    /// epoch's span also holds the runtime's start-up.
    fn traced_op(&self, input: &Input, pipeline: &Pipeline, rec: &mut Recorder) -> LiveOutcome {
        let mut last = Instant::now();
        run_live_with(pipeline, &input.live, |record| {
            let now = Instant::now();
            rec.interval(epoch_span(record), last, now);
            last = now;
        })
    }

    fn layer_metrics(
        &self,
        input: &Input,
        pipeline: &Pipeline,
        out: &LiveOutcome,
        rec: &Recorder,
        _: f64,
    ) -> Vec<Metric> {
        let durations = |name: &str| -> Vec<f64> {
            rec.spans()
                .iter()
                .filter(|s| s.op > 0 && s.name == name)
                .map(|s| s.ms())
                .collect()
        };
        let serving = durations("runtime.epoch");
        let evaluating = durations("controller.epoch");
        let migrating = durations("migrate.epoch");
        let c = &out.controller;
        let mut m = pipeline_layer_metrics(&input.config, pipeline, rec);
        m.extend([
            Metric::new(
                "runtime.serve_epoch_ms_p50",
                stats::quantile(&serving, 0.5).unwrap_or(0.0),
                "ms",
                serving.len(),
            ),
            Metric::new(
                "runtime.serve_epoch_ms_p90",
                stats::quantile(&serving, 0.9).unwrap_or(0.0),
                "ms",
                serving.len(),
            ),
            Metric::new(
                "runtime.eval_epoch_ms",
                stats::median(&evaluating).unwrap_or(0.0),
                "ms",
                evaluating.len(),
            ),
            Metric::new(
                "runtime.migrate_epoch_ms",
                stats::median(&migrating).unwrap_or(0.0),
                "ms",
                migrating.len(),
            ),
            Metric::new(
                "runtime.max_epoch_bytes",
                out.report.max_epoch_migrated_bytes as f64,
                "B",
                1,
            ),
            Metric::new("controller.evaluated", c.evaluated as f64, "count", 1),
            Metric::new("controller.migrations", c.migrations as f64, "count", 1),
            Metric::new(
                "controller.accept_frac",
                c.migrations as f64 / c.evaluated.max(1) as f64,
                "ratio",
                1,
            ),
        ]);
        m.extend(graph_kernel_metrics(
            &pipeline.problem,
            &ReplicaPlacement::from_primary(out.placement.clone()),
        ));
        m.extend(epoch_layer_metrics(input, pipeline));
        m
    }
}

/// Serving and estimation layers for one epoch-sized stream, timed on
/// their own: the epoch's `serve` call (untraced, then made through its
/// public calls by `traced_serve`) against the greedy start placement,
/// and the `epoch_observation` of its executed queries.
fn epoch_layer_metrics(input: &Input, pipeline: &Pipeline) -> Vec<Metric> {
    let live = &input.live;
    let mut rng = StdRng::seed_from_u64(live.seed);
    let log = pipeline
        .workload
        .model
        .sample_log(live.queries_per_epoch, &mut rng);
    let cluster = pipeline.cluster_for(&greedy_placement(&pipeline.problem));
    let config = ServeConfig {
        inflight: live.inflight,
        threads: THREADS,
        deadline_ms: live.deadline_ms,
        burst: None,
        overhead_ns: 0,
    };
    let policy = pipeline.config().aggregation;
    const REPS: usize = 5;
    let serve_ms = time_ms(REPS, || {
        serve(&pipeline.index, &cluster, policy, &log.queries, &config)
    });
    let out = serve(&pipeline.index, &cluster, policy, &log.queries, &config);
    let mut rec = Recorder::new();
    for _ in 0..REPS {
        rec.begin_op();
        std::hint::black_box(traced_serve(
            &pipeline.index,
            &cluster,
            policy,
            &log.queries,
            &config,
            &mut rec,
        ));
    }
    let executed = QueryLog {
        queries: out
            .responses
            .iter()
            .filter(|r| r.status.executed())
            .map(|r| log.queries[r.index].clone())
            .collect(),
        universe: log.universe,
    };
    let observation_ms = time_ms(REPS, || epoch_observation(pipeline, &executed));
    let mut m = serve_layer_metrics(&out, &rec, serve_ms);
    m.push(Metric::new(
        "online.observation_ms",
        observation_ms,
        "ms",
        REPS,
    ));
    m
}
