//! `place-zipf`: the paper's placement path at scale.
//!
//! A 250k-object, 2.5M-pair Zipf instance (skew 0.8) on 32 nodes at the
//! paper's capacity factor, with the 2-shard overlay on. The operation is
//! one degradation-ladder solve started at the partial-LPRR rung (scope
//! 4000), which selects the feasible partial-LPRR placement: ranking,
//! restriction, the LP, rounding, the MD5 compose of the hashed rest and
//! the audit. Search, serving and the controller do nothing here.

use std::hint::black_box;
use std::time::Instant;

use cca::algo::{
    audit_placement, compose_with_hashed_rest, greedy_placement, importance_ranking,
    repair_capacity, round_best_of_within, round_samples, scope_subproblem, solve_relaxation,
    solve_resilient, CcaProblem, DegradationReport, ObjectId, Placement, ReplicaPlacement,
    ResilienceOptions, ResilientPlacement, Rung, RungAttempt, RungOutcome, LADDER,
};
use cca::trace::{zipf_instance, ZipfInstance};

use super::{graph_build_metric, graph_kernel_metrics, md5_metrics, span_ms, zipf_problem};
use crate::spans::Recorder;
use crate::{Metric, Quality, Scale, Workload, THREADS};

/// Shards of the overlay the problem evaluates costs on.
const SHARDS: usize = 2;

/// The `place-zipf` workload.
#[derive(Debug, Clone)]
pub struct PlaceZipf {
    objects: usize,
    pairs: usize,
    nodes: usize,
    scope: usize,
}

impl PlaceZipf {
    /// The workload at `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => PlaceZipf {
                objects: 250_000,
                pairs: 2_500_000,
                nodes: 32,
                scope: 4000,
            },
            Scale::Smoke => PlaceZipf {
                objects: 4_000,
                pairs: 40_000,
                nodes: 8,
                scope: 200,
            },
        }
    }
}

/// Ladder options of a solve started at `start` (with the partial-LPRR
/// rung's scope), on [`THREADS`] threads.
#[must_use]
pub fn ladder_options(start: Rung, scope: Option<usize>) -> ResilienceOptions {
    ResilienceOptions {
        start,
        partial_scope: scope,
        threads: THREADS,
        ..ResilienceOptions::default()
    }
}

impl Workload for PlaceZipf {
    type Input = ZipfInstance;
    type System = CcaProblem;
    type Output = Result<ResilientPlacement, String>;

    fn name(&self) -> &'static str {
        "place-zipf"
    }

    fn instance(&self) -> String {
        format!(
            "zipf objects={} pairs={} skew=0.8 nodes={} capacity_factor={} shards={SHARDS} \
             start=partial-lprr scope={}",
            self.objects,
            self.pairs,
            self.nodes,
            super::CAPACITY_FACTOR,
            self.scope
        )
    }

    fn generate(&self, seed: u64) -> ZipfInstance {
        zipf_instance(self.objects, self.pairs, 0.8, seed)
    }

    fn setup(&self, input: &ZipfInstance, rec: &mut Recorder) -> CcaProblem {
        let mut problem = zipf_problem(input, self.nodes, rec);
        rec.span("shard.build", |_| problem.set_sharding(SHARDS, THREADS));
        problem
    }

    fn op(&self, _: &ZipfInstance, problem: &CcaProblem) -> Self::Output {
        Ok(solve_resilient(
            problem,
            &ladder_options(Rung::PartialLprr, Some(self.scope)),
        ))
    }

    fn check(
        &self,
        _: &ZipfInstance,
        problem: &CcaProblem,
        out: &Self::Output,
    ) -> Result<Quality, String> {
        let solved = out.as_ref().map_err(Clone::clone)?;
        check_single_copy(problem, solved, Rung::PartialLprr)?;
        let cost = solved.cost;
        Ok(Quality {
            comm_per_op: cost,
            ok_frac: 1.0,
            queries: None,
            fingerprint: format!(
                "selected={} cost={:016x} placement={}",
                solved.report.selected,
                cost.to_bits(),
                super::placement_digest(&[solved.placement.as_slice()])
            ),
            figures: vec![
                Metric::new("model_cost", cost, "B", 1),
                Metric::new("failed_frac", 0.0, "ratio", 1),
            ],
        })
    }

    fn traced_op(
        &self,
        _: &ZipfInstance,
        problem: &CcaProblem,
        rec: &mut Recorder,
    ) -> Self::Output {
        traced_ladder(
            problem,
            &ladder_options(Rung::PartialLprr, Some(self.scope)),
            rec,
        )
    }

    fn layer_metrics(
        &self,
        _: &ZipfInstance,
        problem: &CcaProblem,
        out: &Self::Output,
        rec: &Recorder,
        untraced_op_ms: f64,
    ) -> Vec<Metric> {
        let Ok(solved) = out else {
            return Vec::new();
        };
        let mut m = vec![
            Metric::new(
                "problem.build_ms",
                rec.total_ms(0, "problem.build"),
                "ms",
                1,
            ),
            Metric::new("shard.build_ms", rec.total_ms(0, "shard.build"), "ms", 1),
            graph_build_metric(problem),
        ];
        m.extend(graph_kernel_metrics(
            problem,
            &ReplicaPlacement::from_primary(solved.placement.clone()),
        ));
        m.extend(ladder_metrics(
            problem,
            solved,
            rec,
            untraced_op_ms,
            Some(self.scope),
        ));
        // The compose hashes every object's name once.
        let names: Vec<Vec<u8>> = problem
            .objects()
            .map(|o| problem.name(o).as_bytes().to_vec())
            .collect();
        m.extend(md5_metrics(&names));
        m
    }
}

/// Checks of a single-copy ladder solve: every object placed on a real
/// node, the `start` rung selected without degradation, a feasible
/// audit, and a cost equal to an independent audit and to the cost
/// kernel.
///
/// # Errors
///
/// A description of the first failed check.
pub fn check_single_copy(
    problem: &CcaProblem,
    solved: &ResilientPlacement,
    start: Rung,
) -> Result<(), String> {
    let p = &solved.placement;
    if p.num_objects() != problem.num_objects() {
        return Err(format!(
            "{} of {} objects placed",
            p.num_objects(),
            problem.num_objects()
        ));
    }
    if p.as_slice()
        .iter()
        .any(|&k| k as usize >= problem.num_nodes())
    {
        return Err("an object is placed on a node that does not exist".into());
    }
    if solved.report.selected != start || solved.report.degraded {
        return Err(format!("ladder degraded: {}", solved.report.summary()));
    }
    if !solved.audit.feasible() {
        return Err(format!("audit infeasible: {:?}", solved.audit.violations));
    }
    let audit = audit_placement(problem, p, 5);
    if !audit.feasible() || audit.communication_cost.to_bits() != solved.cost.to_bits() {
        return Err(format!(
            "independent audit disagrees: cost {} vs reported {}",
            audit.communication_cost, solved.cost
        ));
    }
    let kernel = problem.eval_cost(p, THREADS);
    if kernel.to_bits() != solved.cost.to_bits() {
        return Err(format!("cost kernel {kernel} vs reported {}", solved.cost));
    }
    Ok(())
}

/// `solve_resilient` made through the public calls the ladder makes,
/// each inside a span: the start rung (for partial LPRR: ranking,
/// restriction, greedy seed, LP relaxation, rounding, repair, compose;
/// for greedy: the greedy placement), the ladder's ranking of the
/// attempt, the effective-problem copy and the audit. It reproduces the
/// ladder when the start rung is feasible; any other path is reported as
/// an error, which the output checks count.
///
/// # Errors
///
/// When the start rung fails or is infeasible, or is neither partial
/// LPRR nor greedy.
pub fn traced_ladder(
    problem: &CcaProblem,
    options: &ResilienceOptions,
    rec: &mut Recorder,
) -> Result<ResilientPlacement, String> {
    let scope_size = options
        .partial_scope
        .unwrap_or_else(|| (problem.num_objects() / 4).max(1));
    let start = Instant::now();
    let placement = match options.start {
        Rung::PartialLprr => rec.span("resilience.partial-lprr", |rec| {
            partial_lprr_rung(problem, options, scope_size, rec)
        })?,
        Rung::Greedy => rec.span("resilience.greedy", |rec| {
            rec.span("greedy.placement", |_| greedy_placement(problem))
        }),
        other => return Err(format!("no traced ladder from the {other} rung")),
    };
    let elapsed = start.elapsed();
    let cost = rec.span("graph.cost", |_| placement.communication_cost(problem));
    let feasible = rec.span("audit.capacity", |_| {
        placement.within_all_capacities(problem, 1.0)
    });
    if !feasible {
        return Err(format!(
            "the {} rung is infeasible; the ladder would go on",
            options.start
        ));
    }
    let effective = rec.span("problem.clone", |_| problem.clone());
    let audit = rec.span("audit.placement", |_| {
        audit_placement(&effective, &placement, options.audit_top)
    });
    // Later rungs are skipped once the start rung is feasible; only the
    // attempt that ran is recorded.
    let report = DegradationReport {
        attempts: vec![RungAttempt {
            rung: options.start,
            outcome: RungOutcome::Feasible,
            elapsed,
            cost: Some(cost),
        }],
        selected: options.start,
        degraded: !audit.feasible(),
        floor_overridden: false,
        deadline_exceeded: false,
        repaired: false,
        injected_fault: None,
        node_loss: None,
        total_elapsed: start.elapsed(),
    };
    Ok(ResilientPlacement {
        placement,
        cost: audit.communication_cost,
        audit,
        report,
        effective_problem: effective,
    })
}

/// The partial-LPRR rung (`place_partial_with` on an LPRR strategy), one
/// span per public call.
fn partial_lprr_rung(
    problem: &CcaProblem,
    options: &ResilienceOptions,
    scope_size: usize,
    rec: &mut Recorder,
) -> Result<Placement, String> {
    let lprr = &options.lprr;
    let ranking = rec.span("scope.ranking", |_| importance_ranking(problem));
    let scope: Vec<ObjectId> = ranking.into_iter().take(scope_size).collect();
    let sub = rec.span("scope.restrict", |_| {
        scope_subproblem(problem, &scope, false)
    });
    let seed = rec.span("greedy.seed", |_| greedy_placement(&sub));
    let relaxed = rec
        .span("relax.solve", |_| {
            solve_relaxation(&sub, Some(&seed), &lprr.relax)
        })
        .map_err(|e| format!("relaxation failed: {e}"))?;
    rec.count("relax.lp_iterations", relaxed.lp_iterations as f64);
    rec.count("relax.rounds", relaxed.rounds as f64);
    rec.count("relax.cuts", relaxed.cuts as f64);
    rec.count("relax.converged", f64::from(u8::from(relaxed.converged)));
    let rounded = rec
        .span("rounding.best_of", |_| {
            round_best_of_within(
                &relaxed.fractional,
                &sub,
                lprr.repetitions,
                lprr.capacity_slack,
                None,
                lprr.rng_seed,
                options.threads.max(lprr.threads),
            )
        })
        .map_err(|e| format!("rounding failed: {e}"))?;
    let mut placement = rounded.placement;
    if lprr.repair && !rounded.within_capacity {
        rec.span("repair.capacity", |_| {
            repair_capacity(&sub, &mut placement, lprr.capacity_slack)
        });
    }
    rec.span("graph.cost", |_| {
        black_box(placement.communication_cost(&sub))
    });
    let composed = rec.span("scope.compose", |_| {
        compose_with_hashed_rest(problem, &scope, &placement)
    });
    rec.span("graph.cost", |_| {
        black_box(composed.communication_cost(problem))
    });
    Ok(composed)
}

/// Per-layer metrics of the ladder: the spans of [`traced_ladder`], the
/// relaxation counts, the rung timings of the untraced solve's report,
/// and, for a partial-LPRR scope, the share of rounding samples that fit.
#[must_use]
pub fn ladder_metrics(
    problem: &CcaProblem,
    solved: &ResilientPlacement,
    rec: &Recorder,
    untraced_op_ms: f64,
    scope: Option<usize>,
) -> Vec<Metric> {
    let traced = rec.ops().len();
    let mut m = vec![
        Metric::new(
            "scope.ranking_ms",
            span_ms(rec, "scope.ranking"),
            "ms",
            traced,
        ),
        Metric::new(
            "scope.restrict_ms",
            span_ms(rec, "scope.restrict"),
            "ms",
            traced,
        ),
        Metric::new(
            "scope.compose_ms",
            span_ms(rec, "scope.compose"),
            "ms",
            traced,
        ),
        Metric::new("relax.ms", span_ms(rec, "relax.solve"), "ms", traced),
        Metric::new(
            "rounding.ms",
            span_ms(rec, "rounding.best_of"),
            "ms",
            traced,
        ),
        Metric::new(
            "greedy.ms",
            span_ms(rec, "greedy.seed") + span_ms(rec, "greedy.placement"),
            "ms",
            traced,
        ),
        Metric::new(
            "audit.ms",
            span_ms(rec, "audit.placement") + span_ms(rec, "audit.capacity"),
            "ms",
            traced,
        ),
    ];
    for name in [
        "relax.lp_iterations",
        "relax.rounds",
        "relax.cuts",
        "relax.converged",
    ] {
        let unit = if name == "relax.converged" {
            "bool"
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
    let rungs_ms: f64 = solved
        .report
        .attempts
        .iter()
        .map(|a| a.elapsed.as_secs_f64() * 1e3)
        .sum();
    for a in solved
        .report
        .attempts
        .iter()
        .filter(|a| !a.elapsed.is_zero())
    {
        m.push(Metric::new(
            format!("resilience.rung_ms.{}", a.rung),
            a.elapsed.as_secs_f64() * 1e3,
            "ms",
            1,
        ));
    }
    let selected = LADDER.iter().position(|&r| r == solved.report.selected);
    m.push(Metric::new(
        "resilience.selected",
        selected.unwrap_or(0) as f64,
        "rung",
        1,
    ));
    m.push(Metric::new(
        "resilience.other_ms",
        untraced_op_ms - rungs_ms,
        "ms",
        1,
    ));
    m.extend(scope.map(|s| rounding_feasible_frac(problem, s)));
    m
}

/// Share of the rung's rounding samples that fit the capacities under
/// the rounding slack (the candidates `round_best_of_within` picks from).
fn rounding_feasible_frac(problem: &CcaProblem, scope_size: usize) -> Metric {
    let lprr = ladder_options(Rung::PartialLprr, Some(scope_size)).lprr;
    let scope: Vec<ObjectId> = importance_ranking(problem)
        .into_iter()
        .take(scope_size)
        .collect();
    let sub = scope_subproblem(problem, &scope, false);
    let seed = greedy_placement(&sub);
    let frac = solve_relaxation(&sub, Some(&seed), &lprr.relax)
        .ok()
        .and_then(|r| round_samples(&r.fractional, lprr.repetitions, lprr.rng_seed, THREADS).ok())
        .map_or(0.0, |samples| {
            let fit = samples
                .iter()
                .filter(|p| p.within_all_capacities(&sub, lprr.capacity_slack))
                .count();
            fit as f64 / samples.len() as f64
        });
    Metric::new("rounding.feasible_frac", frac, "ratio", lprr.repetitions)
}
