//! `replicate-zipf`: replica-aware placement.
//!
//! A 50k-object, 500k-pair Zipf instance on 32 nodes with a flat graph,
//! two copies of every object spread over 8 contiguous leaf domains. The
//! operation is one `solve_resilient_replicated` run: the ladder from the
//! greedy rung for the primary column, the deterministic copy spread, and the
//! spread-preserving polish with its min-over-replica-pairs deltas, which
//! is most of the time. Replica-kernel changes show here and not in
//! `place-zipf`.

use cca::algo::{
    improve_replicas_in_place, solve_resilient_replicated, spread_copies, CcaProblem, DomainTree,
    FaultPlan, MigrateOptions, ResilientReplicaPlacement, Rung,
};
use cca::trace::{zipf_instance, ZipfInstance};

use super::place::{check_single_copy, ladder_metrics, ladder_options, traced_ladder};
use super::{graph_build_metric, graph_kernel_metrics, span_ms, zipf_problem};
use crate::spans::Recorder;
use crate::{Metric, Quality, Scale, Workload, THREADS};

/// Copies of every object.
const REPLICAS: usize = 2;

/// Ladder rung the primary column is solved from. The partial-LPRR rung
/// overloads a node on this instance, so the ladder would fall to greedy
/// anyway; starting there keeps the operation the copy spread and the
/// polish.
const START: Rung = Rung::Greedy;

/// The `replicate-zipf` workload.
#[derive(Debug, Clone)]
pub struct ReplicateZipf {
    objects: usize,
    pairs: usize,
    nodes: usize,
    domains: usize,
}

impl ReplicateZipf {
    /// The workload at `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => ReplicateZipf {
                objects: 50_000,
                pairs: 500_000,
                nodes: 32,
                domains: 8,
            },
            Scale::Smoke => ReplicateZipf {
                objects: 2_000,
                pairs: 20_000,
                nodes: 8,
                domains: 4,
            },
        }
    }
}

/// The replicated workload's problem and failure-domain tree.
#[derive(Debug)]
pub struct System {
    /// The flat placement problem.
    pub problem: CcaProblem,
    /// Contiguous leaf domains over the nodes.
    pub tree: DomainTree,
}

impl Workload for ReplicateZipf {
    type Input = ZipfInstance;
    type System = System;
    type Output = Result<ResilientReplicaPlacement, String>;

    fn name(&self) -> &'static str {
        "replicate-zipf"
    }

    fn instance(&self) -> String {
        format!(
            "zipf objects={} pairs={} skew=0.8 nodes={} capacity_factor={} flat graph \
             replicas={REPLICAS} domains={} (contiguous) start={START}",
            self.objects,
            self.pairs,
            self.nodes,
            super::CAPACITY_FACTOR,
            self.domains
        )
    }

    fn generate(&self, seed: u64) -> ZipfInstance {
        zipf_instance(self.objects, self.pairs, 0.8, seed)
    }

    fn setup(&self, input: &ZipfInstance, rec: &mut Recorder) -> System {
        let problem = zipf_problem(input, self.nodes, rec);
        let tree = DomainTree::contiguous(self.nodes, self.domains)
            .expect("the node count divides into the domains");
        System { problem, tree }
    }

    fn op(&self, _: &ZipfInstance, s: &System) -> Self::Output {
        solve_resilient_replicated(
            &s.problem,
            &ladder_options(START, None),
            &FaultPlan::default(),
            &s.tree,
            REPLICAS,
        )
        .map_err(|e| e.to_string())
    }

    fn check(&self, _: &ZipfInstance, s: &System, out: &Self::Output) -> Result<Quality, String> {
        let solved = out.as_ref().map_err(Clone::clone)?;
        check_single_copy(&s.problem, &solved.base, START)?;
        let rp = &solved.replica;
        if rp.replicas() != REPLICAS || rp.num_objects() != s.problem.num_objects() {
            return Err(format!(
                "{} copies of {} objects placed",
                rp.replicas(),
                rp.num_objects()
            ));
        }
        if !solved.spread_valid || !rp.spread_valid(&s.tree) {
            return Err(format!(
                "spread invalid for {} objects",
                rp.spread_violations(&s.tree).len()
            ));
        }
        let kernel = s.problem.eval_cost_replicas(rp, THREADS);
        if kernel.to_bits() != solved.cost.to_bits() {
            return Err(format!(
                "replica cost kernel {kernel} vs reported {}",
                solved.cost
            ));
        }
        let columns: Vec<&[u32]> = rp.columns().iter().map(|c| c.as_slice()).collect();
        Ok(Quality {
            comm_per_op: solved.cost,
            ok_frac: 1.0,
            queries: None,
            fingerprint: format!(
                "cost={:016x} replicas={}",
                solved.cost.to_bits(),
                super::placement_digest(&columns)
            ),
            figures: vec![
                Metric::new("model_cost", solved.cost, "B", 1),
                Metric::new("failed_frac", 0.0, "ratio", 1),
            ],
        })
    }

    fn traced_op(&self, _: &ZipfInstance, s: &System, rec: &mut Recorder) -> Self::Output {
        let base = traced_ladder(&s.problem, &ladder_options(START, None), rec)?;
        let effective = &base.effective_problem;
        let slack = REPLICAS as f64;
        let spread = rec
            .span("replica.spread", |_| {
                spread_copies(effective, &s.tree, base.placement.clone(), REPLICAS, slack)
            })
            .map_err(|e| e.to_string())?;
        let polished = rec.span("migrate.polish", |_| {
            improve_replicas_in_place(
                effective,
                &s.tree,
                &spread,
                &MigrateOptions {
                    capacity_slack: slack,
                    ..MigrateOptions::default()
                },
            )
        });
        rec.count("migrate.polish_moves", polished.moves as f64);
        rec.count("migrate.polish_bytes", polished.migrated_bytes as f64);
        let spread_valid = rec.span("replica.check", |_| polished.replica.spread_valid(&s.tree));
        Ok(ResilientReplicaPlacement {
            replica: polished.replica,
            cost: polished.comm_cost,
            base,
            spread_valid,
        })
    }

    fn layer_metrics(
        &self,
        _: &ZipfInstance,
        s: &System,
        out: &Self::Output,
        rec: &Recorder,
        untraced_op_ms: f64,
    ) -> Vec<Metric> {
        let Ok(solved) = out else {
            return Vec::new();
        };
        let traced = rec.ops().len();
        let mut m = vec![
            Metric::new(
                "problem.build_ms",
                rec.total_ms(0, "problem.build"),
                "ms",
                1,
            ),
            graph_build_metric(&s.problem),
            Metric::new(
                "replica.spread_ms",
                span_ms(rec, "replica.spread"),
                "ms",
                traced,
            ),
            Metric::new(
                "migrate.polish_ms",
                span_ms(rec, "migrate.polish"),
                "ms",
                traced,
            ),
        ];
        for name in ["migrate.polish_moves", "migrate.polish_bytes"] {
            let unit = if name.ends_with("bytes") {
                "B"
            } else {
                "count"
            };
            m.push(Metric::new(
                name,
                rec.last_count(name).unwrap_or(0.0),
                unit,
                1,
            ));
        }
        m.extend(graph_kernel_metrics(&s.problem, &solved.replica));
        m.extend(ladder_metrics(
            &s.problem,
            &solved.base,
            rec,
            untraced_op_ms,
            None,
        ));
        m
    }
}
