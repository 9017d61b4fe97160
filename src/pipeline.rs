//! The end-to-end evaluation pipeline of the paper's §4 case study.
//!
//! Workload generation → inverted-index construction → CCA problem
//! assembly → placement → trace replay with communication accounting.
//! Every figure harness and example builds on this module.

use cca_core::{
    place, place_partial, CcaError, CcaProblem, ObjectId, Placement, PlacementReport, ProblemError,
    Strategy,
};
use cca_search::{
    AggregationPolicy, Cluster, ExecutionStats, InvertedIndex, QueryEngine, StopwordList,
};
use cca_trace::{PairStats, QueryLog, TraceConfig, WordId, Workload};

/// How pair correlations are estimated from the query log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CorrelationMode {
    /// Count every keyword pair in every query (the plain §2.1 definition).
    AllPairs,
    /// Count only the two smallest-index keywords of each query — the
    /// paper's §3.2 adjustment for intersection-like operations, used by
    /// its evaluation.
    #[default]
    TwoSmallest,
    /// Count one pair per non-largest keyword against the largest — the
    /// paper's §3.2 adjustment for union-like operations. Pair this with
    /// [`AggregationPolicy::Union`] replay.
    LargestRest,
}

/// Pairs co-requested fewer than this many times are ignored (the noise
/// floor of the correlation estimate).
const MIN_PAIR_COUNT: u64 = 2;

/// Pair statistics of `log` under `mode`; the §3.2 adjustments rank a
/// query's keywords by their index sizes.
pub(crate) fn pair_stats(
    mode: CorrelationMode,
    log: &QueryLog,
    index: &InvertedIndex,
) -> PairStats {
    match mode {
        CorrelationMode::AllPairs => PairStats::from_log(log),
        CorrelationMode::TwoSmallest => {
            PairStats::from_log_two_smallest(log, |w| index.size_bytes(w))
        }
        CorrelationMode::LargestRest => {
            PairStats::from_log_largest_rest(log, |w| index.size_bytes(w))
        }
    }
}

/// Configuration of the evaluation pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Workload generator parameters.
    pub trace: TraceConfig,
    /// Seed for workload generation (placements themselves are seeded via
    /// the strategy options).
    pub seed: u64,
    /// Number of cluster nodes.
    pub num_nodes: usize,
    /// Per-node capacity as a multiple of the average per-node index size;
    /// the paper uses 2.0 ("no more than twice the average per-node load").
    pub capacity_factor: f64,
    /// Correlation estimation mode.
    pub correlation: CorrelationMode,
    /// Keep at most this many heaviest pairs in the CCA problem (the
    /// sparse-`E` assumption of §3.1); `0` disables pruning.
    pub max_pairs: usize,
    /// How the replayed engine aggregates multi-keyword operations.
    /// Intersection matches [`CorrelationMode::TwoSmallest`]; Union
    /// matches [`CorrelationMode::LargestRest`].
    pub aggregation: AggregationPolicy,
}

impl PipelineConfig {
    /// A pipeline over `trace` and `num_nodes` nodes with the paper's
    /// defaults (capacity factor 2.0, two-smallest correlations).
    #[must_use]
    pub fn new(trace: TraceConfig, num_nodes: usize) -> Self {
        PipelineConfig {
            trace,
            seed: 42,
            num_nodes,
            capacity_factor: 2.0,
            correlation: CorrelationMode::TwoSmallest,
            max_pairs: 0,
            aggregation: AggregationPolicy::Intersection,
        }
    }
}

/// The built pipeline: workload, index, and the CCA problem over all
/// indexed keywords.
#[derive(Debug)]
pub struct Pipeline {
    /// The generated workload (corpus + query log + model).
    pub workload: Workload,
    /// Inverted index over the corpus.
    pub index: InvertedIndex,
    /// Pair statistics estimated from the query log per the configured
    /// [`CorrelationMode`].
    pub stats: PairStats,
    /// The CCA problem: one object per indexed keyword.
    pub problem: CcaProblem,
    /// Keyword of each object (object id → word id).
    pub word_of_object: Vec<WordId>,
    /// Object of each word (word id → object index, `usize::MAX` when the
    /// word is unindexed).
    pub object_of_word: Vec<usize>,
    config: PipelineConfig,
}

/// One evaluated placement: the solver report plus replay measurements.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Placement and model-level cost from the solver.
    pub report: PlacementReport,
    /// Trace-replay measurements (actual bytes moved, locality).
    pub replay: ExecutionStats,
    /// Load-imbalance factor of the placement (max/mean stored bytes).
    pub imbalance: f64,
}

impl Pipeline {
    /// Generates the workload, builds the index, estimates correlations and
    /// assembles the CCA problem.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero nodes, empty workload).
    #[must_use]
    pub fn build(config: &PipelineConfig) -> Self {
        assert!(config.num_nodes > 0, "pipeline needs at least one node");
        let workload = Workload::generate(&config.trace, config.seed);
        let index = InvertedIndex::build(
            &workload.corpus,
            &workload.vocabulary,
            &StopwordList::smart(),
        );

        let stats = pair_stats(config.correlation, &workload.queries, &index);

        // Objects: every indexed keyword, in deterministic (word id) order.
        let mut keywords: Vec<WordId> = index.keywords().collect();
        keywords.sort_unstable();
        let mut object_of_word = vec![usize::MAX; workload.vocabulary.len()];
        for (idx, &w) in keywords.iter().enumerate() {
            object_of_word[w.index()] = idx;
        }

        let problem = assemble_problem(
            config,
            &workload,
            &index,
            &keywords,
            &object_of_word,
            &stats,
        );

        Pipeline {
            workload,
            index,
            stats,
            problem,
            word_of_object: keywords,
            object_of_word,
            config: config.clone(),
        }
    }

    /// The configuration the pipeline was built with.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Re-targets the pipeline at a different cluster size, recomputing the
    /// per-node capacities (`capacity_factor × total ÷ nodes`) without
    /// regenerating the workload or index. Used by the node-count sweeps.
    ///
    /// # Errors
    ///
    /// [`ProblemError::NoNodes`] if `num_nodes` is zero, and
    /// [`ProblemError::Overflow`] if the new capacities' total does not
    /// fit a `u64`; the pipeline is then unchanged.
    pub fn renode(&mut self, num_nodes: usize) -> Result<(), ProblemError> {
        let capacity = (self.config.capacity_factor * self.index.total_bytes() as f64
            / num_nodes as f64)
            .ceil() as u64;
        self.problem = self.problem.with_capacities(vec![capacity; num_nodes])?;
        self.config.num_nodes = num_nodes;
        Ok(())
    }

    /// Computes a placement: full optimization (`scope = None`) or
    /// important-object partial optimization over the top `scope` objects.
    ///
    /// Determinism: for a fixed pipeline seed and strategy configuration
    /// the placement is reproducible byte-for-byte, including under
    /// [`LprrOptions::threads`](cca_core::LprrOptions) — rounding
    /// repetition `i` draws from substream `i` of the seed regardless of
    /// which worker runs it.
    ///
    /// # Errors
    ///
    /// Propagates LP failures from the LPRR strategy.
    pub fn place(
        &self,
        strategy: &Strategy,
        scope: Option<usize>,
    ) -> Result<PlacementReport, CcaError> {
        match scope {
            None => place(&self.problem, strategy),
            Some(m) => place_partial(&self.problem, m, strategy),
        }
    }

    /// Materialises a placement as a cluster (word-level lookup table).
    #[must_use]
    pub fn cluster_for(&self, placement: &Placement) -> Cluster {
        let mut assignment = vec![usize::MAX; self.workload.vocabulary.len()];
        for (obj_idx, &w) in self.word_of_object.iter().enumerate() {
            assignment[w.index()] = placement.node_of(ObjectId(obj_idx as u32));
        }
        Cluster::with_assignment(self.config.num_nodes, &self.index, &assignment)
    }

    /// Materialises a replicated placement as a cluster: one lookup column
    /// per copy. With one replica this is exactly
    /// [`Pipeline::cluster_for`] on the primary column, so single-copy
    /// routing is unchanged.
    #[must_use]
    pub fn cluster_for_replicas(&self, rp: &cca_core::ReplicaPlacement) -> Cluster {
        if rp.replicas() == 1 {
            return self.cluster_for(rp.primary());
        }
        let columns: Vec<Vec<usize>> = (0..rp.replicas())
            .map(|j| {
                let mut column = vec![usize::MAX; self.workload.vocabulary.len()];
                for (obj_idx, &w) in self.word_of_object.iter().enumerate() {
                    column[w.index()] = rp.node_of(ObjectId(obj_idx as u32), j);
                }
                column
            })
            .collect();
        Cluster::with_replica_assignment(self.config.num_nodes, &self.index, &columns)
    }

    /// Replays the query log against a placement and measures communication.
    #[must_use]
    pub fn replay(&self, placement: &Placement) -> ExecutionStats {
        let cluster = self.cluster_for(placement);
        let engine = QueryEngine::new(&self.index, &cluster, self.config.aggregation);
        engine.replay(&self.workload.queries)
    }

    /// Estimates the replay bytes of a placement from metadata alone via
    /// [`QueryEngine::model_probe`] — O(total query words), no posting
    /// lists touched. Exact for [`AggregationPolicy::Union`] pipelines; a
    /// lower bound on [`ExecutionStats::total_bytes`] for
    /// [`AggregationPolicy::Intersection`]. Useful for ranking candidate
    /// placements before paying for a full [`Pipeline::replay`].
    #[must_use]
    pub fn probe(&self, placement: &Placement) -> u64 {
        self.probe_batch(std::slice::from_ref(placement))[0]
    }

    /// [`Pipeline::probe`] for `k` candidate placements at once via
    /// [`QueryEngine::probe_batch`]: every query's placement-independent
    /// shape (posting-size sort, host selection) is derived **once** and
    /// evaluated against all candidates, instead of once per candidate.
    /// Entry `c` equals `probe(&placements[c])` exactly; an empty slice
    /// yields an empty vector.
    #[must_use]
    pub fn probe_batch(&self, placements: &[Placement]) -> Vec<u64> {
        let clusters: Vec<Cluster> = placements.iter().map(|p| self.cluster_for(p)).collect();
        let Some(first) = clusters.first() else {
            return Vec::new();
        };
        let refs: Vec<&Cluster> = clusters.iter().collect();
        let engine = QueryEngine::new(&self.index, first, self.config.aggregation);
        engine.probe_batch(&self.workload.queries, &refs)
    }

    /// Builds a CCA problem with correlations re-estimated from a
    /// different query log (e.g. a drifted month) over this pipeline's
    /// corpus and index. The object table, sizes and capacities are
    /// identical to [`Pipeline::build`]'s, so placements are directly
    /// comparable and [`cca_core::migration_bytes`] applies.
    #[must_use]
    pub fn problem_for_log(&self, log: &QueryLog) -> CcaProblem {
        let stats = pair_stats(self.config.correlation, log, &self.index);
        assemble_problem(
            &self.config,
            &self.workload,
            &self.index,
            &self.word_of_object,
            &self.object_of_word,
            &stats,
        )
    }

    /// Places with `strategy` (and optional scope) and replays the trace.
    ///
    /// # Errors
    ///
    /// Propagates LP failures from the LPRR strategy.
    pub fn evaluate(
        &self,
        strategy: &Strategy,
        scope: Option<usize>,
    ) -> Result<Evaluation, CcaError> {
        let report = self.place(strategy, scope)?;
        let replay = self.replay(&report.placement);
        let cluster = self.cluster_for(&report.placement);
        Ok(Evaluation {
            report,
            replay,
            imbalance: cluster.imbalance(),
        })
    }
}

/// Shared problem assembly for [`Pipeline::build`] and
/// [`Pipeline::problem_for_log`].
fn assemble_problem(
    config: &PipelineConfig,
    workload: &Workload,
    index: &InvertedIndex,
    keywords: &[WordId],
    object_of_word: &[usize],
    stats: &PairStats,
) -> CcaProblem {
    let mut builder = CcaProblem::builder();
    for &w in keywords {
        builder.add_object(workload.vocabulary.spelling(w), index.size_bytes(w));
    }

    // Pairs: correlation r from the log; communication cost w = bytes
    // shipped when split = size of the smaller index.
    let noise_floor = MIN_PAIR_COUNT as f64 / stats.num_queries().max(1) as f64;
    for (pair, r) in stats.iter() {
        if r + 1e-15 < noise_floor {
            continue;
        }
        let (oa, ob) = (
            object_of_word[pair.0.index()],
            object_of_word[pair.1.index()],
        );
        if oa == usize::MAX || ob == usize::MAX {
            continue; // a queried word absent from the corpus
        }
        let wij = index.size_bytes(pair.0).min(index.size_bytes(pair.1)) as f64;
        if wij == 0.0 {
            continue;
        }
        builder
            .add_pair(ObjectId(oa as u32), ObjectId(ob as u32), r, wij)
            .expect("pipeline-constructed pairs are valid");
    }

    let total_bytes = index.total_bytes();
    let capacity =
        (config.capacity_factor * total_bytes as f64 / config.num_nodes as f64).ceil() as u64;
    let mut problem = builder
        .uniform_capacities(config.num_nodes, capacity)
        .build()
        .expect("pipeline-constructed problem is valid");
    if config.max_pairs > 0 {
        problem.prune_pairs(config.max_pairs);
    }
    problem
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pipeline() -> Pipeline {
        let mut cfg = PipelineConfig::new(TraceConfig::tiny(), 3);
        cfg.seed = 11;
        Pipeline::build(&cfg)
    }

    #[test]
    fn problem_mirrors_index() {
        let p = tiny_pipeline();
        assert_eq!(p.problem.num_objects(), p.index.num_keywords());
        for (idx, &w) in p.word_of_object.iter().enumerate() {
            let o = ObjectId(idx as u32);
            assert_eq!(p.problem.size(o), p.index.size_bytes(w));
            assert_eq!(
                p.problem.name(o),
                p.workload.vocabulary.spelling(w),
                "object name must be the keyword spelling"
            );
            assert_eq!(p.object_of_word[w.index()], idx);
        }
    }

    #[test]
    fn capacity_is_factor_times_average() {
        let p = tiny_pipeline();
        let expected = (2.0 * p.index.total_bytes() as f64 / 3.0).ceil() as u64;
        assert_eq!(p.problem.capacity(0), expected);
    }

    #[test]
    fn pairs_have_min_size_costs() {
        let p = tiny_pipeline();
        assert!(!p.problem.pairs().is_empty(), "expected correlated pairs");
        for pair in p.problem.pairs() {
            let wa = p.word_of_object[pair.a.index()];
            let wb = p.word_of_object[pair.b.index()];
            let expected = p.index.size_bytes(wa).min(p.index.size_bytes(wb)) as f64;
            assert_eq!(pair.comm_cost, expected);
            assert!(pair.correlation > 0.0 && pair.correlation <= 1.0);
        }
    }

    #[test]
    fn replay_is_placement_sensitive_and_better_when_colocated() {
        let p = tiny_pipeline();
        let random = p.evaluate(&Strategy::RandomHash, None).unwrap();
        let greedy = p.evaluate(&Strategy::Greedy, None).unwrap();
        assert!(random.replay.total_bytes > 0);
        assert!(
            greedy.replay.total_bytes <= random.replay.total_bytes,
            "greedy {} vs random {}",
            greedy.replay.total_bytes,
            random.replay.total_bytes
        );
    }

    #[test]
    fn single_node_cluster_is_free() {
        let mut cfg = PipelineConfig::new(TraceConfig::tiny(), 1);
        cfg.seed = 11;
        let p = Pipeline::build(&cfg);
        let eval = p.evaluate(&Strategy::RandomHash, None).unwrap();
        assert_eq!(eval.replay.total_bytes, 0);
        assert!((eval.imbalance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scoped_placement_hashes_the_tail() {
        let p = tiny_pipeline();
        let scoped = p.place(&Strategy::Greedy, Some(10)).unwrap();
        let full_random = p.place(&Strategy::RandomHash, None).unwrap();
        // Out-of-scope objects must match the hash placement.
        let ranking = cca_core::importance_ranking(&p.problem);
        let in_scope: std::collections::HashSet<_> = ranking.into_iter().take(10).collect();
        for o in p.problem.objects() {
            if !in_scope.contains(&o) {
                assert_eq!(
                    scoped.placement.node_of(o),
                    full_random.placement.node_of(o)
                );
            }
        }
    }

    #[test]
    fn probe_lower_bounds_replay() {
        let p = tiny_pipeline();
        for strategy in [Strategy::RandomHash, Strategy::Greedy] {
            let report = p.place(&strategy, None).unwrap();
            let probe = p.probe(&report.placement);
            let replayed = p.replay(&report.placement).total_bytes;
            assert!(
                probe <= replayed,
                "probe {probe} exceeded replayed bytes {replayed}"
            );
        }
        // And the probe still separates good from bad placements.
        let random = p.place(&Strategy::RandomHash, None).unwrap();
        let greedy = p.place(&Strategy::Greedy, None).unwrap();
        assert!(p.probe(&greedy.placement) <= p.probe(&random.placement));
    }

    #[test]
    fn probe_batch_matches_per_placement_probes() {
        let p = tiny_pipeline();
        let candidates = vec![
            p.place(&Strategy::RandomHash, None).unwrap().placement,
            p.place(&Strategy::Greedy, None).unwrap().placement,
        ];
        let batch = p.probe_batch(&candidates);
        assert_eq!(batch.len(), 2);
        for (c, placement) in candidates.iter().enumerate() {
            assert_eq!(batch[c], p.probe(placement), "candidate {c}");
        }
        assert!(p.probe_batch(&[]).is_empty());
    }

    #[test]
    fn union_pipeline_probe_is_exact() {
        let mut cfg = PipelineConfig::new(TraceConfig::tiny(), 3);
        cfg.seed = 11;
        cfg.correlation = CorrelationMode::LargestRest;
        cfg.aggregation = AggregationPolicy::Union;
        let p = Pipeline::build(&cfg);
        let report = p.place(&Strategy::Greedy, None).unwrap();
        assert_eq!(
            p.probe(&report.placement),
            p.replay(&report.placement).total_bytes
        );
    }

    #[test]
    fn model_cost_tracks_replay_cost() {
        // The CCA objective (model) and replayed bytes (measurement) must
        // agree on ordering: a placement with much lower model cost should
        // not replay worse. Checked via random vs greedy.
        let p = tiny_pipeline();
        let random = p.evaluate(&Strategy::RandomHash, None).unwrap();
        let greedy = p.evaluate(&Strategy::Greedy, None).unwrap();
        if greedy.report.cost < 0.5 * random.report.cost {
            assert!(greedy.replay.total_bytes < random.replay.total_bytes);
        }
    }
}
