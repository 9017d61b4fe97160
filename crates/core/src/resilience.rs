//! Deadline-aware resilient solving: budgets, a degradation ladder, and
//! deterministic fault injection.
//!
//! The paper's LPRR pipeline is the *best* strategy, not the *only* one —
//! and production placement decisions have deadlines. This module wraps
//! the strategies of [`crate::solver`] in a **degradation ladder**: try
//! LPRR, fall back to partial LPRR over the most important objects, then
//! to greedy, then to hash placement, auditing and (if needed) repairing
//! the best candidate found. [`solve_resilient`] therefore *always*
//! returns a placement — never a panic, never an empty hand — together
//! with a [`DegradationReport`] describing every rung attempted, why each
//! stopped, and whether the result is degraded or infeasible.
//!
//! Budgets ([`SolveBudget`]) bound the wall-clock time, total simplex
//! iterations, and rounding repetitions of the expensive rungs; past the
//! deadline only the O(t) hash rung still runs, so the ladder's response
//! time is bounded by the cheapest strategy.
//!
//! [`FaultPlan`] injects *deterministic* faults for testing: LP iteration
//! exhaustion, a poisoned (non-finite) simplex objective, all-infeasible
//! rounding, and post-solve node loss. Faults are realised through the
//! real code paths (iteration caps, the solver's chaos hook, zero rounding
//! slack, zeroed capacities) so the chaos suite exercises exactly the
//! machinery production would. The LP-poisoning hook only exists when the
//! workspace is built with the `chaos` feature; the other faults are plain
//! option settings and work in every build.

use std::time::{Duration, Instant};

use crate::audit::{audit_placement, PlacementAudit};
use crate::error::CcaError;
use crate::greedy::greedy_placement;
use crate::migrate::{
    improve_in_place, improve_replicas_in_place, migration_bytes, replica_migration_bytes,
    MigrateOptions,
};
use crate::placement::Placement;
use crate::problem::CcaProblem;
use crate::problem::ProblemError;
use crate::random::random_hash_placement;
use crate::relax::RelaxMethod;
use crate::repair::{repair_capacity, repair_replica_spread};
use crate::replica::{spread_copies, validate_replica_spec, DomainTree, ReplicaPlacement};
use crate::solver::{place, place_partial_with, LprrOptions, Strategy};
use cca_rand::rngs::StdRng;
use cca_rand::{Rng, SeedableRng};

/// Resource budget for one resilient solve.
#[derive(Debug, Clone, Default)]
pub struct SolveBudget {
    /// Wall-clock budget measured from the start of the solve. Past it,
    /// in-flight LP work aborts with its best solution so far and only the
    /// hash rung is still attempted. `None` means unlimited.
    pub deadline: Option<Duration>,
    /// Cap on simplex iterations summed over all cut-generation rounds
    /// (forwarded to [`crate::RelaxOptions::max_total_lp_iterations`]).
    /// `0` means unlimited.
    pub max_lp_iterations: u64,
    /// Cap on rounding repetitions (overrides
    /// [`LprrOptions::repetitions`] when non-zero).
    pub max_rounding_repetitions: usize,
}

/// One rung of the degradation ladder, best first. The `Ord` order is the
/// ladder order: a *later* rung is a *worse* (but cheaper and more
/// reliable) strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// Full LPRR (the paper's contribution).
    Lprr,
    /// LPRR on the most important objects only, hash for the rest
    /// (paper §3.1).
    PartialLprr,
    /// Greedy correlation-aware heuristic.
    Greedy,
    /// Correlation-oblivious hash placement — O(t), cannot fail.
    Hash,
}

/// All rungs in ladder order.
pub const LADDER: [Rung; 4] = [Rung::Lprr, Rung::PartialLprr, Rung::Greedy, Rung::Hash];

impl Rung {
    /// Short machine-friendly name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rung::Lprr => "lprr",
            Rung::PartialLprr => "partial-lprr",
            Rung::Greedy => "greedy",
            Rung::Hash => "hash",
        }
    }

    /// Parses a rung name as accepted by the `cca` CLI.
    #[must_use]
    pub fn parse(s: &str) -> Option<Rung> {
        match s {
            "lprr" => Some(Rung::Lprr),
            "partial-lprr" | "partial" => Some(Rung::PartialLprr),
            "greedy" => Some(Rung::Greedy),
            "hash" | "random" => Some(Rung::Hash),
            _ => None,
        }
    }
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How one rung attempt ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RungOutcome {
    /// Produced a placement within every capacity.
    Feasible,
    /// Produced a placement, but it violates at least one capacity.
    Infeasible,
    /// The strategy returned an error (message attached).
    Failed(String),
    /// The rung was not attempted (reason attached), e.g. because the
    /// deadline had already passed or a better rung succeeded first.
    Skipped(String),
}

impl RungOutcome {
    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            RungOutcome::Feasible => "feasible",
            RungOutcome::Infeasible => "infeasible",
            RungOutcome::Failed(_) => "failed",
            RungOutcome::Skipped(_) => "skipped",
        }
    }
}

/// Record of one ladder rung.
#[derive(Debug, Clone)]
pub struct RungAttempt {
    /// Which rung.
    pub rung: Rung,
    /// How it ended.
    pub outcome: RungOutcome,
    /// Wall-clock time spent on it.
    pub elapsed: Duration,
    /// Communication cost of its placement, when one was produced.
    pub cost: Option<f64>,
}

/// Re-placement summary after losing nodes (see [`survive_node_loss`]).
#[derive(Debug, Clone)]
pub struct NodeLossReport {
    /// Indices of the nodes whose capacity dropped to zero, ascending.
    pub dropped_nodes: Vec<usize>,
    /// Bytes moved relative to the pre-loss placement.
    pub migrated_bytes: u64,
    /// Objects moved relative to the pre-loss placement.
    pub moves: usize,
}

/// Structured account of a resilient solve: every rung attempted, what
/// was selected, and every way the result deviates from the ideal.
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// Every rung, in ladder order, with its outcome.
    pub attempts: Vec<RungAttempt>,
    /// The rung whose placement was returned.
    pub selected: Rung,
    /// True when the result is worse than asked for: a lower rung than
    /// the requested start was selected, the floor had to be overridden,
    /// or the final placement is still infeasible.
    pub degraded: bool,
    /// True when no rung within `[start, floor]` produced a placement and
    /// the emergency hash rung ran outside the requested window.
    pub floor_overridden: bool,
    /// True when the wall-clock budget expired during the solve.
    pub deadline_exceeded: bool,
    /// True when the ladder-level repair pass had to move objects to
    /// restore capacity feasibility.
    pub repaired: bool,
    /// Human-readable description of the injected fault plan, when one
    /// was active (see [`FaultPlan::describe`]).
    pub injected_fault: Option<String>,
    /// Present when node loss was injected or simulated.
    pub node_loss: Option<NodeLossReport>,
    /// Total wall-clock time of the resilient solve.
    pub total_elapsed: Duration,
}

impl DegradationReport {
    /// Renders the report as a short human-readable block.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "degradation ladder ({} ms total):",
            self.total_elapsed.as_millis()
        );
        for a in &self.attempts {
            let detail = match &a.outcome {
                RungOutcome::Feasible | RungOutcome::Infeasible => match a.cost {
                    // `+ 0.0` normalises a negative zero.
                    Some(c) => format!("cost {:.2}, {} ms", c + 0.0, a.elapsed.as_millis()),
                    None => format!("{} ms", a.elapsed.as_millis()),
                },
                RungOutcome::Failed(m) | RungOutcome::Skipped(m) => m.clone(),
            };
            let _ = writeln!(out, "  {:<12} {:<10} {detail}", a.rung.name(), a.outcome.label());
        }
        let _ = writeln!(
            out,
            "selected: {}{}{}{}",
            self.selected,
            if self.degraded { " (degraded)" } else { "" },
            if self.floor_overridden { " (floor overridden)" } else { "" },
            if self.repaired { " (repaired)" } else { "" },
        );
        if self.deadline_exceeded {
            let _ = writeln!(out, "deadline exceeded during solve");
        }
        if let Some(f) = &self.injected_fault {
            let _ = writeln!(out, "injected fault: {f}");
        }
        if let Some(n) = &self.node_loss {
            let _ = writeln!(
                out,
                "node loss: dropped {:?}, re-placed {} objects ({} bytes)",
                n.dropped_nodes, n.moves, n.migrated_bytes
            );
        }
        out
    }
}

/// Deterministic fault plan for chaos testing. All faults are realised
/// through real configuration paths, so they compose and stay
/// reproducible per seed. The default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed: perturbs the rounding RNG and picks the dropped nodes.
    pub seed: u64,
    /// Force the LP rungs onto the cutting-plane method with a one-
    /// iteration simplex cap, exhausting the iteration budget immediately.
    pub exhaust_lp_iterations: bool,
    /// Poison the simplex basic solution with NaN from the given
    /// iteration on. Forces the cutting-plane method. **Requires the
    /// `chaos` feature** — without it the hook is inert and the LP solves
    /// normally.
    pub poison_lp_after: Option<u64>,
    /// Run rounding with zero capacity slack and no in-rung repair, so
    /// every repetition is capacity-infeasible and the ladder has to
    /// select a least-overloaded candidate and repair it itself.
    pub fail_rounding: bool,
    /// After the solve, zero the capacity of this many seeded-randomly
    /// chosen nodes (at most `n - 1`) and re-place their objects.
    pub drop_nodes: usize,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        !self.exhaust_lp_iterations
            && self.poison_lp_after.is_none()
            && !self.fail_rounding
            && self.drop_nodes == 0
    }

    /// One-line description naming every injected fault.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.exhaust_lp_iterations {
            parts.push("exhaust-lp-iterations".to_string());
        }
        if let Some(n) = self.poison_lp_after {
            parts.push(format!("poison-lp@{n}"));
        }
        if self.fail_rounding {
            parts.push("fail-rounding".to_string());
        }
        if self.drop_nodes > 0 {
            parts.push(format!("drop-{}-nodes", self.drop_nodes));
        }
        if parts.is_empty() {
            parts.push("noop".to_string());
        }
        format!("{} (seed {})", parts.join(" + "), self.seed)
    }
}

/// Options for [`solve_resilient`].
#[derive(Debug, Clone)]
pub struct ResilienceOptions {
    /// LPRR configuration used by the LP rungs.
    pub lprr: LprrOptions,
    /// Budgets applied across the whole ladder.
    pub budget: SolveBudget,
    /// Best rung to try (rungs above it are skipped).
    pub start: Rung,
    /// Worst rung permitted (quality floor). If nothing in
    /// `[start, floor]` yields a placement, the hash rung runs anyway and
    /// the report flags `floor_overridden`.
    pub floor: Rung,
    /// Scope size for the partial-LPRR rung; `None` means a quarter of
    /// the objects (at least one).
    pub partial_scope: Option<usize>,
    /// How many heaviest split pairs the final audit keeps.
    pub audit_top: usize,
    /// Worker threads for the rounding repetitions inside the LP rungs.
    /// The ladder itself attempts one rung at a time, in ladder order, at
    /// every thread count, so the chosen placement does not depend on it.
    pub threads: usize,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            lprr: LprrOptions::default(),
            budget: SolveBudget::default(),
            start: Rung::Lprr,
            floor: Rung::Hash,
            partial_scope: None,
            audit_top: 5,
            threads: 1,
        }
    }
}

/// A placement that survived the degradation ladder, with its full audit
/// and degradation report.
#[derive(Debug, Clone)]
pub struct ResilientPlacement {
    /// The placement, complete over all objects.
    pub placement: Placement,
    /// Its communication cost on the effective problem.
    pub cost: f64,
    /// Independent audit against the effective problem.
    pub audit: PlacementAudit,
    /// What happened on the way here.
    pub report: DegradationReport,
    /// The problem the placement was finally audited against: the input
    /// problem, or the capacity-degraded one after node loss.
    pub effective_problem: CcaProblem,
}

/// Solves `problem` through the degradation ladder. Never panics on a
/// well-formed problem and always returns a placement: infeasibility and
/// budget exhaustion degrade the result (and are flagged in the report)
/// instead of erroring.
#[must_use]
pub fn solve_resilient(problem: &CcaProblem, options: &ResilienceOptions) -> ResilientPlacement {
    solve_resilient_with_faults(problem, options, &FaultPlan::default())
}

/// [`solve_resilient`] under a deterministic [`FaultPlan`]. With the
/// default (no-op) plan this is exactly [`solve_resilient`].
#[must_use]
pub fn solve_resilient_with_faults(
    problem: &CcaProblem,
    options: &ResilienceOptions,
    faults: &FaultPlan,
) -> ResilientPlacement {
    let start_time = Instant::now();
    let deadline = options.budget.deadline.map(|d| start_time + d);

    // Materialise the budget and the fault plan as LPRR configuration.
    let mut lprr = options.lprr.clone();
    lprr.relax.solver.deadline = deadline;
    if options.budget.max_lp_iterations > 0 {
        lprr.relax.max_total_lp_iterations = options.budget.max_lp_iterations;
    }
    if options.budget.max_rounding_repetitions > 0 {
        lprr.repetitions = options.budget.max_rounding_repetitions;
    }
    lprr.rng_seed = lprr.rng_seed.wrapping_add(faults.seed);
    lprr.threads = options.threads.max(lprr.threads);
    if faults.exhaust_lp_iterations {
        lprr.relax.method = RelaxMethod::CuttingPlane;
        lprr.relax.solver.max_iterations = 1;
    }
    if faults.poison_lp_after.is_some() {
        lprr.relax.method = RelaxMethod::CuttingPlane;
        lprr.relax.solver.chaos_poison_after = faults.poison_lp_after;
    }
    if faults.fail_rounding {
        lprr.capacity_slack = 0.0;
        lprr.repair = false;
    }

    let floor = options.floor.max(options.start);
    let slack = options.lprr.capacity_slack.max(1.0);
    let scope = options
        .partial_scope
        .unwrap_or_else(|| (problem.num_objects() / 4).max(1));

    let mut attempts: Vec<RungAttempt> = Vec::new();
    let mut deadline_exceeded = false;
    // Best candidate so far: feasible beats infeasible, then lower cost.
    let mut best: Option<(Rung, Placement, f64, bool)> = None;

    // Walk the permitted window in ladder order, stopping at the first
    // feasible rung; past the deadline only the O(t) hash rung still runs.
    for rung in LADDER
        .into_iter()
        .filter(|&r| r >= options.start && r <= floor)
    {
        if let Some((_, _, _, true)) = best {
            attempts.push(RungAttempt {
                rung,
                outcome: RungOutcome::Skipped("better rung already feasible".into()),
                elapsed: Duration::ZERO,
                cost: None,
            });
            continue;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            deadline_exceeded = true;
            if rung != Rung::Hash {
                attempts.push(RungAttempt {
                    rung,
                    outcome: RungOutcome::Skipped("deadline exceeded".into()),
                    elapsed: Duration::ZERO,
                    cost: None,
                });
                continue;
            }
        }
        let t = Instant::now();
        let result = attempt_rung(problem, rung, &lprr, scope);
        let elapsed = t.elapsed();
        match result {
            Ok(p) => {
                let cost = p.communication_cost(problem);
                let feasible = p.within_all_capacities(problem, 1.0);
                attempts.push(RungAttempt {
                    rung,
                    outcome: if feasible {
                        RungOutcome::Feasible
                    } else {
                        RungOutcome::Infeasible
                    },
                    elapsed,
                    cost: Some(cost),
                });
                let replace = match &best {
                    None => true,
                    Some((_, _, bc, bf)) => (feasible, -cost) > (*bf, -*bc),
                };
                if replace {
                    best = Some((rung, p, cost, feasible));
                }
            }
            Err(e) => attempts.push(RungAttempt {
                rung,
                outcome: RungOutcome::Failed(e.to_string()),
                elapsed,
                cost: None,
            }),
        }
    }

    // Emergency: nothing in the permitted window produced a placement.
    // Hash placement cannot fail, so run it outside the window rather
    // than return empty-handed.
    let mut floor_overridden = false;
    let (selected, mut placement, _, feasible) = match best {
        Some(b) => b,
        None => {
            floor_overridden = true;
            let t = Instant::now();
            let p = random_hash_placement(problem);
            let cost = p.communication_cost(problem);
            let feasible = p.within_all_capacities(problem, 1.0);
            attempts.push(RungAttempt {
                rung: Rung::Hash,
                outcome: if feasible {
                    RungOutcome::Feasible
                } else {
                    RungOutcome::Infeasible
                },
                elapsed: t.elapsed(),
                cost: Some(cost),
            });
            (Rung::Hash, p, cost, feasible)
        }
    };

    // Ladder-level repair: the selected candidate is the best we found,
    // but it may still violate capacities (e.g. under fail_rounding).
    let mut repaired = false;
    if !feasible {
        let outcome = repair_capacity(problem, &mut placement, slack);
        repaired = outcome.moves > 0;
    }

    // Deterministic node loss: zero the chosen capacities and re-place.
    let mut node_loss = None;
    let mut effective_problem = problem.clone();
    if faults.drop_nodes > 0 && problem.num_nodes() > 1 {
        let dead = pick_dead_nodes(problem.num_nodes(), faults.drop_nodes, faults.seed);
        let (degraded, replaced, loss) = survive_node_loss(problem, &placement, &dead, slack);
        effective_problem = degraded;
        placement = replaced;
        node_loss = Some(loss);
    }

    if let Some(d) = deadline {
        if Instant::now() >= d {
            deadline_exceeded = true;
        }
    }

    let audit = audit_placement(&effective_problem, &placement, options.audit_top);
    let cost = audit.communication_cost;
    let degraded = floor_overridden || !audit.feasible() || selected != options.start;
    let report = DegradationReport {
        attempts,
        selected,
        degraded,
        floor_overridden,
        deadline_exceeded,
        repaired,
        injected_fault: (!faults.is_noop()).then(|| faults.describe()),
        node_loss,
        total_elapsed: start_time.elapsed(),
    };
    ResilientPlacement {
        placement,
        cost,
        audit,
        report,
        effective_problem,
    }
}

fn attempt_rung(
    problem: &CcaProblem,
    rung: Rung,
    lprr: &LprrOptions,
    scope: usize,
) -> Result<Placement, CcaError> {
    match rung {
        Rung::Lprr => place(problem, &Strategy::Lprr(lprr.clone())).map(|r| r.placement),
        Rung::PartialLprr => {
            place_partial_with(problem, scope, &Strategy::Lprr(lprr.clone()), false)
                .map(|r| r.placement)
        }
        Rung::Greedy => Ok(greedy_placement(problem)),
        Rung::Hash => Ok(random_hash_placement(problem)),
    }
}

/// Picks `k` distinct dead nodes (at most `n - 1`, so at least one node
/// survives) by a seeded partial Fisher–Yates shuffle. Deterministic per
/// `(n, k, seed)`.
fn pick_dead_nodes(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n.saturating_sub(1));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.random_range(i..n);
        nodes.swap(i, j);
    }
    let mut dead: Vec<usize> = nodes[..k].to_vec();
    dead.sort_unstable();
    dead
}

/// Simulates losing `dead_nodes`: their storage capacity drops to zero in
/// a copy of `problem`, the placement is repaired off them (and polished
/// with capacity-respecting migration), and the data movement is
/// accounted. Returns the degraded problem, the re-placed placement, and
/// the loss report.
///
/// Secondary-resource capacities are *not* zeroed — [`CcaProblem`] keeps
/// them per-resource, and a storage capacity of zero already evicts every
/// object from the node; the repair pass then respects the survivors'
/// resource limits.
#[must_use]
pub fn survive_node_loss(
    problem: &CcaProblem,
    placement: &Placement,
    dead_nodes: &[usize],
    capacity_slack: f64,
) -> (CcaProblem, Placement, NodeLossReport) {
    let slack = capacity_slack.max(1.0);
    let capacities: Vec<u64> = (0..problem.num_nodes())
        .map(|k| {
            if dead_nodes.contains(&k) {
                0
            } else {
                problem.capacity(k)
            }
        })
        .collect();
    let degraded = problem.with_capacities(capacities);
    let mut replaced = placement.clone();
    let _ = repair_capacity(&degraded, &mut replaced, slack);
    let polished = improve_in_place(
        &degraded,
        &replaced,
        &MigrateOptions {
            capacity_slack: slack,
            ..MigrateOptions::default()
        },
    );
    let replaced = polished.placement;
    let report = NodeLossReport {
        dropped_nodes: {
            let mut d: Vec<usize> = dead_nodes.to_vec();
            d.sort_unstable();
            d.dedup();
            d
        },
        migrated_bytes: migration_bytes(problem, placement, &replaced),
        moves: problem
            .objects()
            .filter(|&o| placement.node_of(o) != replaced.node_of(o))
            .count(),
    };
    (degraded, replaced, report)
}

/// What happened when a whole failure domain died
/// ([`survive_domain_loss`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainLossReport {
    /// The killed leaf domain.
    pub domain: usize,
    /// Its member nodes (every one dropped), ascending.
    pub dropped_nodes: Vec<usize>,
    /// Bytes moved relative to the pre-loss replica placement, summed
    /// over every re-placed copy.
    pub migrated_bytes: u64,
    /// Copies moved relative to the pre-loss replica placement.
    pub moves: usize,
    /// Whether the repaired placement satisfies the spread invariant
    /// (`false` only when fewer alive leaf domains remain than replicas).
    pub spread_valid: bool,
}

/// The domain-level generalization of [`survive_node_loss`]: kills every
/// node of leaf `domain` (capacity → 0), re-spreads the orphaned copies
/// onto alive domains ([`repair_replica_spread`]), then polishes with
/// the replica-aware local search under the degraded capacities.
///
/// Under the flat tree a domain is a single node, so this is node loss
/// with the per-copy repair rule; the read path keeps serving throughout
/// because every object retains `r − 1` live copies until repair lands.
///
/// # Panics
///
/// Panics if `domain` is out of range or the tree and placement disagree
/// on node count.
#[must_use]
pub fn survive_domain_loss(
    problem: &CcaProblem,
    tree: &DomainTree,
    rp: &ReplicaPlacement,
    domain: usize,
    capacity_slack: f64,
) -> (CcaProblem, ReplicaPlacement, DomainLossReport) {
    let slack = capacity_slack.max(1.0);
    let dead_nodes: Vec<usize> = tree.nodes_in(domain).to_vec();
    let capacities: Vec<u64> = (0..problem.num_nodes())
        .map(|k| {
            if dead_nodes.contains(&k) {
                0
            } else {
                problem.capacity(k)
            }
        })
        .collect();
    let degraded = problem.with_capacities(capacities);
    let mut repaired = rp.clone();
    let _ = repair_replica_spread(&degraded, tree, &mut repaired, &dead_nodes, slack);
    let polished = improve_replicas_in_place(
        &degraded,
        tree,
        &repaired,
        &MigrateOptions {
            capacity_slack: slack,
            ..MigrateOptions::default()
        },
    );
    let repaired = polished.replica;
    let moves = problem
        .objects()
        .map(|o| {
            (0..rp.replicas())
                .filter(|&j| rp.node_of(o, j) != repaired.node_of(o, j))
                .count()
        })
        .sum();
    let report = DomainLossReport {
        domain,
        dropped_nodes: dead_nodes,
        migrated_bytes: replica_migration_bytes(problem, rp, &repaired),
        moves,
        spread_valid: repaired.spread_valid(tree),
    };
    (degraded, repaired, report)
}

/// A resilient solve generalized to `r` copies per object.
#[derive(Debug, Clone)]
pub struct ResilientReplicaPlacement {
    /// The replica placement (column 0 is the ladder's single-copy
    /// answer, bit-for-bit).
    pub replica: ReplicaPlacement,
    /// Replica-aware communication cost on the effective problem
    /// (min-over-replica-choices; equals `base.cost` when `r = 1`).
    pub cost: f64,
    /// The single-copy ladder outcome the primary column came from.
    pub base: ResilientPlacement,
    /// Whether the copies satisfy the spread invariant.
    pub spread_valid: bool,
}

/// Replica-aware [`solve_resilient_with_faults`]: runs the existing
/// degradation ladder unchanged for the primary column, then spreads
/// `replicas − 1` extra copies across the leaf domains of `tree` by the
/// deterministic copy rule of [`crate::replica`] (the greedy/hash rungs'
/// copies land round-robin across domains via the load ranking), and
/// polishes the copies with the spread-preserving local search.
///
/// With `replicas = 1` the ladder's placement is wrapped untouched and
/// its cost/audit are returned as-is — the r=1 equivalence guarantee.
///
/// # Errors
///
/// [`validate_replica_spec`] failures (`replicas == 0`, or more replicas
/// than leaf domains).
pub fn solve_resilient_replicated(
    problem: &CcaProblem,
    options: &ResilienceOptions,
    faults: &FaultPlan,
    tree: &DomainTree,
    replicas: usize,
) -> Result<ResilientReplicaPlacement, ProblemError> {
    validate_replica_spec(replicas, tree)?;
    let base = solve_resilient_with_faults(problem, options, faults);
    if replicas == 1 {
        let replica = ReplicaPlacement::from_primary(base.placement.clone());
        let cost = base.cost;
        return Ok(ResilientReplicaPlacement {
            replica,
            cost,
            base,
            spread_valid: true,
        });
    }
    let effective = &base.effective_problem;
    // r copies store r× the bytes: scale the per-node storage budget so
    // the spread rule can keep preferring fitting nodes.
    let slack = replicas as f64;
    let spread = spread_copies(effective, tree, base.placement.clone(), replicas, slack)?;
    let polished = improve_replicas_in_place(
        effective,
        tree,
        &spread,
        &MigrateOptions {
            capacity_slack: slack,
            ..MigrateOptions::default()
        },
    );
    let spread_valid = polished.replica.spread_valid(tree);
    Ok(ResilientReplicaPlacement {
        cost: polished.comm_cost,
        replica: polished.replica,
        base,
        spread_valid,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered(groups: usize, per_group: usize, nodes: usize) -> CcaProblem {
        let mut b = CcaProblem::builder();
        let mut objs = Vec::new();
        for g in 0..groups {
            for i in 0..per_group {
                objs.push(b.add_object(format!("g{g}w{i}"), 10));
            }
        }
        for g in 0..groups {
            for i in 0..per_group {
                for j in i + 1..per_group {
                    b.add_pair(objs[g * per_group + i], objs[g * per_group + j], 0.8, 5.0)
                        .unwrap();
                }
            }
        }
        let total = (groups * per_group * 10) as u64;
        let cap = 2 * total / nodes as u64;
        b.uniform_capacities(nodes, cap).build().unwrap()
    }

    #[test]
    fn healthy_solve_selects_the_start_rung() {
        let p = clustered(4, 3, 3);
        let r = solve_resilient(&p, &ResilienceOptions::default());
        assert_eq!(r.report.selected, Rung::Lprr);
        assert!(!r.report.degraded);
        assert!(!r.report.floor_overridden);
        assert!(r.audit.feasible());
        assert_eq!(r.placement.num_objects(), p.num_objects());
        // Rungs below the selected one are recorded as skipped.
        assert_eq!(r.report.attempts.len(), 4);
        assert!(matches!(
            r.report.attempts[1].outcome,
            RungOutcome::Skipped(_)
        ));
        assert!(r.report.injected_fault.is_none());
        assert!(r.report.summary().contains("selected: lprr"));
    }

    #[test]
    fn start_and_floor_window_restricts_the_ladder() {
        let p = clustered(3, 3, 2);
        let opts = ResilienceOptions {
            start: Rung::Greedy,
            floor: Rung::Greedy,
            ..ResilienceOptions::default()
        };
        let r = solve_resilient(&p, &opts);
        assert_eq!(r.report.selected, Rung::Greedy);
        assert_eq!(r.report.attempts.len(), 1);
        assert!(!r.report.degraded);
    }

    #[test]
    fn zero_deadline_degrades_to_hash() {
        let p = clustered(4, 3, 3);
        let opts = ResilienceOptions {
            budget: SolveBudget {
                deadline: Some(Duration::ZERO),
                ..SolveBudget::default()
            },
            ..ResilienceOptions::default()
        };
        let r = solve_resilient(&p, &opts);
        assert_eq!(r.report.selected, Rung::Hash);
        assert!(r.report.deadline_exceeded);
        assert!(r.report.degraded);
        // The expensive rungs were skipped, not attempted.
        for a in &r.report.attempts[..3] {
            assert!(matches!(a.outcome, RungOutcome::Skipped(_)), "{a:?}");
        }
        assert_eq!(r.placement.num_objects(), p.num_objects());
    }

    #[test]
    fn infeasible_problem_returns_flagged_not_error() {
        // Total size 20 exceeds total capacity 10: no feasible placement
        // exists, but the ladder still answers with flagged violations.
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 10);
        let c = b.add_object("b", 10);
        b.add_pair(a, c, 1.0, 1.0).unwrap();
        let p = b.uniform_capacities(2, 5).build().unwrap();
        let r = solve_resilient(&p, &ResilienceOptions::default());
        assert_eq!(r.placement.num_objects(), 2);
        assert!(!r.audit.feasible());
        assert!(r.report.degraded);
        // LPRR failed (infeasible LP) and the report says so.
        assert!(matches!(
            r.report.attempts[0].outcome,
            RungOutcome::Failed(_)
        ));
    }

    #[test]
    fn resilient_solves_are_deterministic() {
        let p = clustered(4, 3, 3);
        let opts = ResilienceOptions::default();
        let a = solve_resilient(&p, &opts);
        let b = solve_resilient(&p, &opts);
        assert_eq!(a.placement.as_slice(), b.placement.as_slice());
        assert_eq!(a.report.selected, b.report.selected);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn parallel_rungs_select_the_same_placement() {
        let p = clustered(4, 3, 3);
        let serial = solve_resilient(&p, &ResilienceOptions::default());
        for threads in [2, 8] {
            let opts = ResilienceOptions {
                threads,
                ..ResilienceOptions::default()
            };
            let par = solve_resilient(&p, &opts);
            assert_eq!(
                par.placement.as_slice(),
                serial.placement.as_slice(),
                "threads = {threads}"
            );
            assert_eq!(par.report.selected, serial.report.selected);
            assert_eq!(par.cost.to_bits(), serial.cost.to_bits());
            // Attempt ledger keeps the serial shape: later rungs are
            // recorded as skipped once a better rung is feasible.
            assert_eq!(par.report.attempts.len(), serial.report.attempts.len());
            for (a, b) in par.report.attempts.iter().zip(&serial.report.attempts) {
                assert_eq!(a.rung, b.rung);
                assert_eq!(a.outcome.label(), b.outcome.label());
            }
        }
    }

    #[test]
    fn node_loss_replaces_onto_survivors() {
        let p = clustered(4, 3, 4);
        let r = solve_resilient(&p, &ResilienceOptions::default());
        let (degraded, replaced, loss) =
            survive_node_loss(&p, &r.placement, &[1], 1.05);
        assert_eq!(degraded.capacity(1), 0);
        assert_eq!(replaced.num_objects(), p.num_objects());
        assert!(replaced.loads(&degraded)[1] == 0, "dead node still loaded");
        assert_eq!(loss.dropped_nodes, vec![1]);
        // Anything that was on node 1 moved; bytes account for the moves.
        assert!(loss.moves > 0 || r.placement.loads(&p)[1] == 0);
        assert_eq!(
            loss.migrated_bytes,
            migration_bytes(&p, &r.placement, &replaced)
        );
    }

    #[test]
    fn dead_node_picks_are_deterministic_and_bounded() {
        let a = pick_dead_nodes(8, 3, 42);
        let b = pick_dead_nodes(8, 3, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // Never kills the whole cluster.
        assert_eq!(pick_dead_nodes(4, 99, 7).len(), 3);
        assert!(pick_dead_nodes(1, 1, 7).is_empty());
    }

    #[test]
    fn fault_plan_descriptions_name_every_fault() {
        assert!(FaultPlan::default().is_noop());
        assert_eq!(FaultPlan::default().describe(), "noop (seed 0)");
        let f = FaultPlan {
            seed: 9,
            exhaust_lp_iterations: true,
            poison_lp_after: Some(5),
            fail_rounding: true,
            drop_nodes: 2,
        };
        assert!(!f.is_noop());
        let d = f.describe();
        for part in [
            "exhaust-lp-iterations",
            "poison-lp@5",
            "fail-rounding",
            "drop-2-nodes",
            "seed 9",
        ] {
            assert!(d.contains(part), "{d} missing {part}");
        }
    }

    #[test]
    fn rung_order_and_parsing() {
        assert!(Rung::Lprr < Rung::PartialLprr);
        assert!(Rung::PartialLprr < Rung::Greedy);
        assert!(Rung::Greedy < Rung::Hash);
        for r in LADDER {
            assert_eq!(Rung::parse(r.name()), Some(r));
        }
        assert_eq!(Rung::parse("partial"), Some(Rung::PartialLprr));
        assert_eq!(Rung::parse("random"), Some(Rung::Hash));
        assert_eq!(Rung::parse("bogus"), None);
    }
}
