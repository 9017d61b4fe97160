//! Online drift-driven re-optimization controller with cost/benefit-gated
//! migration and mid-run fault recovery (DESIGN.md §12).
//!
//! The paper solves placement once for a fixed correlation matrix; this
//! module closes the loop for a system that serves shifting traffic for
//! weeks. A [`Controller`] owns the live placement and, epoch by epoch:
//!
//! 1. **Estimates.** Ingests per-epoch pair-observation counts
//!    ([`EpochObservation`]) and maintains an EWMA estimate of every base
//!    edge's correlation, indexed by the canonical CSR
//!    [`EdgeId`](crate::graph::EdgeId) order. Estimates are quantized to a
//!    2⁻²⁰ grid, the EWMA's resolution. Controller runs are byte-identical
//!    for any `threads` and any shard count of the base problem: every
//!    graph sums exact weights (DESIGN.md §11).
//! 2. **Detects drift per scope.** Objects are range-partitioned into
//!    scopes (an edge belongs to its smaller endpoint's scope); a scope's
//!    drift is the relative L1 gap between estimated and placed-against
//!    edge weights.
//! 3. **Re-solves scoped.** The worst drifting scope is re-solved with
//!    [`solve_resilient`] on a capacity-adjusted
//!    [`restrict_to`](CcaProblem::restrict_to) subproblem; the candidate
//!    and the incumbent are scored in **one**
//!    [`eval_cost_batch`](CcaProblem::eval_cost_batch) walk.
//! 4. **Gates the migration.** A candidate is applied via [`reconcile`]
//!    only if its projected savings amortize
//!    [`migration_bytes`] within a configurable horizon, counting the
//!    per-scope accumulated loss already incurred (the SkyPie
//!    `MigrationOptimizer` pattern: rejected candidates accrue their gap
//!    into per-scope loss state until a migration pays for itself), and
//!    only if the candidate survives a [`survive_node_loss`] probe
//!    (`rejected_not_worthwhile` / `rejected_not_robust` accounting).
//! 5. **Survives faults.** Seeded node loss ([`Controller::inject_fault`])
//!    triggers repair-then-continue with bounded escalating-slack retries, and
//!    degraded scoped solves back off exponentially (bounded) instead of
//!    spinning — the loop never crashes and never silently stalls.
//!
//! The run is summarized by a [`ControllerReport`] whose counters satisfy
//! `evaluated == migrations + rejected_not_worthwhile +
//! rejected_not_robust` by construction, serialized by
//! [`crate::persist::format_report`].

use crate::graph::PlacementBatch;
use crate::migrate::{
    migration_bytes, reconcile, MigrateOptions, MigrationSchedule, MigrationSlice,
};
use crate::placement::Placement;
use crate::problem::{CcaProblem, ObjectId};
use crate::replica::DomainTree;
use crate::resilience::{
    pick_dead_nodes, solve_resilient, survive_node_loss, ResilienceOptions, Rung,
};
use std::collections::HashMap;
use std::time::Duration;

/// Denominator of the estimate grid: correlation estimates are multiples
/// of 2⁻²⁰, the resolution of the EWMA's values.
const EST_GRID: f64 = (1u64 << 20) as f64;

/// EWMA smoothing factor: the estimate update is
/// `est ← quantize((1−α)·est + α·observed)`. It is dyadic (¼), so the
/// un-quantized intermediate stays exact.
const EWMA_ALPHA: f64 = 0.25;

/// Minimum relative L1 drift (`Σ|est−placed| / Σ placed`) a scope must
/// show before a scoped re-solve is attempted.
const DRIFT_THRESHOLD: f64 = 0.05;

/// At most this many objects (by incident estimated weight) enter a
/// scoped re-solve.
const SCOPE_TOP: usize = 96;

/// Capacity slack for repair, robustness probes and migration.
const CAPACITY_SLACK: f64 = 1.05;

/// Best rung a scoped re-solve tries.
const SOLVE_START: Rung = Rung::Greedy;

/// Worst rung a scoped re-solve may select.
const SOLVE_FLOOR: Rung = Rung::Hash;

/// Degraded scoped solves for a scope are retried (with exponential epoch
/// backoff) at most this many times before the degraded candidate
/// proceeds to the gates anyway.
const MAX_SOLVE_RETRIES: u32 = 2;

/// Base epoch backoff after a degraded scoped solve; doubles per
/// consecutive degradation (capped at 2⁶×).
const BACKOFF_EPOCHS: u64 = 16;

/// Escalating-slack repair attempts after a node loss before the loss is
/// recorded as unrecovered (the loop still continues).
const MAX_REPAIR_RETRIES: u32 = 3;

/// Snaps a correlation estimate onto the dyadic 2⁻²⁰ grid.
#[must_use]
pub fn quantize_estimate(r: f64) -> f64 {
    (r * EST_GRID).round() / EST_GRID
}

/// What callers set on the online controller. `Default` is calibrated for
/// the pipeline presets: evaluate every 16 epochs over 4 scopes and
/// amortize migrations over a 128-epoch horizon. The rest of the loop's
/// tuning is fixed: an EWMA of α = ¼, a drift threshold of 5%, greedy
/// scoped re-solves over at most 96 objects, a capacity slack of 1.05 and
/// bounded retry and backoff counts.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Gate evaluation cadence: drift is checked every this many epochs.
    pub evaluate_every: u64,
    /// Epochs a migration may take to amortize: accepted when
    /// `accumulated_loss + horizon·per_epoch_saving > migration_bytes`.
    pub horizon_epochs: u64,
    /// Number of contiguous object-range scopes drift is tracked per.
    pub scope_count: usize,
    /// Worker threads for solves and batched scoring (results are
    /// identical for any value).
    pub threads: usize,
    /// Wall-clock deadline of every scoped resilient solve; `None` means
    /// unlimited. It is the **only** nondeterministic knob in the loop.
    pub deadline: Option<Duration>,
    /// When set, accepted migrations are not applied in one bulk
    /// [`reconcile`]; they are staged as a [`MigrationSchedule`] and the
    /// driver ships at most this many bytes per epoch via
    /// [`Controller::advance_migration`] (the live-runtime pacing
    /// contract, DESIGN.md §14). `None` (the default) keeps the
    /// immediate bulk apply.
    pub migration_budget_per_epoch: Option<u64>,
    /// The robustness gate probes the loss of the heaviest-loaded
    /// surviving **leaf domain** of this tree (DESIGN.md §15). `None` is
    /// the flat tree — every node its own domain — which probes the
    /// heaviest single node.
    pub domains: Option<DomainTree>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            evaluate_every: 16,
            horizon_epochs: 128,
            scope_count: 4,
            threads: 1,
            deadline: None,
            migration_budget_per_epoch: None,
            domains: None,
        }
    }
}

/// One epoch's worth of observed pair traffic: co-occurrence counts per
/// object pair out of `queries` queries. Pairs absent from the base
/// problem's edge set are ignored (the controller tracks drift of known
/// correlations; discovering new edges is a model-rebuild concern).
#[derive(Debug, Clone, Default)]
pub struct EpochObservation {
    /// `(a, b, co-occurrence count)` triples; order is irrelevant and
    /// duplicates accumulate.
    pub pair_counts: Vec<(ObjectId, ObjectId, u64)>,
    /// Queries observed this epoch (the count denominator).
    pub queries: u64,
}

/// What one [`Controller::step`] decided.
#[derive(Debug, Clone, PartialEq)]
pub enum EpochOutcome {
    /// Not an evaluation epoch (or every scope is backing off).
    Idle,
    /// Evaluated cadence hit, but no scope drifted past the threshold.
    NoDrift {
        /// Scope with the largest drift.
        scope: usize,
        /// Its relative L1 drift.
        drift: f64,
    },
    /// The scoped re-solve degraded below the requested rung; the scope
    /// backs off and will be retried.
    SolveDegraded {
        /// The scope whose solve degraded.
        scope: usize,
        /// First epoch at which the scope becomes eligible again.
        retry_at: u64,
    },
    /// Projected savings do not amortize the migration within the horizon.
    RejectedNotWorthwhile {
        /// The evaluated scope.
        scope: usize,
        /// `accumulated_loss + horizon·per_epoch_saving` (bytes).
        projected: f64,
        /// Bytes the migration would move.
        migration_bytes: u64,
        /// The scope's accumulated loss after accrual.
        accumulated_loss: f64,
    },
    /// The candidate failed the feasibility / node-loss-survival probe.
    RejectedNotRobust {
        /// The evaluated scope.
        scope: usize,
    },
    /// The migration was applied.
    Migrated {
        /// The migrated scope.
        scope: usize,
        /// Objects moved by [`reconcile`].
        moves: u64,
        /// Bytes moved by [`reconcile`].
        bytes: u64,
        /// Modeled cost gap per query between incumbent and candidate.
        saving_per_query: f64,
    },
    /// The migration was accepted and staged as a byte-budgeted
    /// [`MigrationSchedule`]; the driver ships it slice by slice through
    /// [`Controller::advance_migration`]. Only emitted when
    /// [`ControllerConfig::migration_budget_per_epoch`] is set.
    MigrationScheduled {
        /// The migrating scope.
        scope: usize,
        /// Bytes the full migration will ship.
        total_bytes: u64,
        /// Modeled cost gap per query between incumbent and candidate.
        saving_per_query: f64,
    },
}

/// Outcome of a [`Controller::inject_fault`] node-loss event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecovery {
    /// Node indices that lost their capacity, ascending.
    pub dropped_nodes: Vec<usize>,
    /// Escalating-slack repair attempts consumed (0 = first try held).
    pub retries: u32,
    /// Objects moved while repairing.
    pub moves: u64,
    /// Bytes moved while repairing.
    pub bytes: u64,
    /// Whether the repaired placement fits the surviving capacities
    /// (under the controller's slack). `false` never stops the loop.
    pub recovered: bool,
}

/// Per-scope controller state: the SkyPie accumulated-loss pattern plus
/// degraded-solve backoff.
#[derive(Debug, Clone, Default)]
struct ScopeState {
    /// Bytes of forgone savings accrued while migrations were rejected.
    /// Monotone between accepted migrations; reset to zero on acceptance.
    accumulated_loss: f64,
    /// Epoch of the last gate evaluation (accrual anchor).
    last_eval: u64,
    /// First epoch at which a degraded scope may be re-evaluated.
    backoff_until: u64,
    /// Consecutive degraded solves (drives exponential backoff).
    consecutive_degraded: u32,
}

/// End-of-run account of a controller loop. Produced by
/// [`Controller::report`]; serialized by
/// [`crate::persist::format_report`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ControllerReport {
    /// Epochs stepped.
    pub epochs: u64,
    /// Total queries observed.
    pub queries: u64,
    /// Gate evaluations that reached a verdict
    /// (`== migrations + rejected_not_worthwhile + rejected_not_robust`).
    pub evaluated: u64,
    /// Accepted migrations.
    pub migrations: u64,
    /// Objects moved by accepted migrations.
    pub objects_moved: u64,
    /// Bytes moved by accepted migrations.
    pub migrated_bytes: u64,
    /// Candidates whose projected savings missed the horizon gate.
    pub rejected_not_worthwhile: u64,
    /// Candidates that failed the feasibility / node-loss probe.
    pub rejected_not_robust: u64,
    /// Scoped solves that selected a rung below the requested start.
    pub degradations: u64,
    /// Degraded solves that were backed off and retried.
    pub solve_retries: u64,
    /// Node-loss repair events performed.
    pub repairs: u64,
    /// Escalating-slack retries consumed across repairs.
    pub repair_retries: u64,
    /// Objects moved by repairs.
    pub repair_moves: u64,
    /// Bytes moved by repairs.
    pub repair_bytes: u64,
    /// Nodes lost to injected faults.
    pub node_losses: u64,
    /// Losses whose repair never regained feasibility.
    pub unrecovered_losses: u64,
    /// Outstanding accumulated loss summed over scopes (bytes).
    pub accumulated_loss: f64,
    /// Final placement cost under the current estimated weights.
    pub final_cost: f64,
    /// Whether the final placement fits the surviving capacities under
    /// the controller's slack.
    pub final_feasible: bool,
}

impl ControllerReport {
    /// The gate-accounting invariant: every evaluation reached exactly
    /// one verdict.
    #[must_use]
    pub fn counters_consistent(&self) -> bool {
        self.evaluated == self.migrations + self.rejected_not_worthwhile + self.rejected_not_robust
    }

    /// Whether the run deviated from the ideal path (degraded solves or
    /// node losses) — maps to CLI exit code 2.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.degradations > 0 || self.node_losses > 0
    }

    /// Multi-line human summary (the machine format lives in
    /// [`crate::persist::format_report`]).
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "epochs: {} ({} queries)\n",
            self.epochs, self.queries
        ));
        s.push_str(&format!(
            "evaluated: {} -> migrated {} / not worthwhile {} / not robust {}\n",
            self.evaluated, self.migrations, self.rejected_not_worthwhile, self.rejected_not_robust
        ));
        s.push_str(&format!(
            "moved: {} objects, {} bytes; outstanding loss {:.1} bytes\n",
            self.objects_moved, self.migrated_bytes, self.accumulated_loss
        ));
        s.push_str(&format!(
            "faults: {} node losses, {} repairs ({} retries, {} unrecovered)\n",
            self.node_losses, self.repairs, self.repair_retries, self.unrecovered_losses
        ));
        s.push_str(&format!(
            "solves: {} degraded, {} retried\n",
            self.degradations, self.solve_retries
        ));
        s.push_str(&format!(
            "final: cost {:.2}, feasible {}\n",
            self.final_cost, self.final_feasible
        ));
        s
    }
}

/// The long-running re-optimization controller. See the module docs for
/// the control loop; construct with [`Controller::new`], drive with
/// [`Controller::step`] (and [`Controller::inject_fault`] for chaos), and
/// summarize with [`Controller::report`].
#[derive(Debug)]
pub struct Controller {
    config: ControllerConfig,
    /// The base problem: object table, sizes, names, canonical edge set
    /// and original capacities; estimates are indexed by its `EdgeId`s.
    base: CcaProblem,
    /// Surviving per-node capacities (zero once a node is lost).
    live_capacities: Vec<u64>,
    dead: Vec<bool>,
    placement: Placement,
    /// EWMA correlation estimate per base edge, on the 2⁻²⁰ grid.
    est_r: Vec<f64>,
    /// Correlation snapshot the current placement was last solved
    /// against, per base edge (drift is measured relative to this).
    placed_r: Vec<f64>,
    /// Communication cost per base edge (fixed).
    comm_cost: Vec<f64>,
    /// `(min, max)` object-index pair → base edge index.
    edge_of_pair: HashMap<(u32, u32), u32>,
    /// Scope of each object (contiguous ranges).
    scope_of: Vec<usize>,
    /// Edge indices owned by each scope (by smaller endpoint).
    scope_edges: Vec<Vec<u32>>,
    scopes: Vec<ScopeState>,
    /// Running tallies: epochs, queries and every counter of the report;
    /// [`Controller::report`] fills in the end-of-run fields.
    tally: ControllerReport,
    /// Scratch: per-edge observed correlation for the current epoch.
    obs_scratch: Vec<f64>,
    /// An accepted migration still being shipped slice by slice
    /// (only under `migration_budget_per_epoch`).
    pending_migration: Option<MigrationSchedule>,
    /// Schedules abandoned because a slice stalled (every pending object
    /// over budget or capacity-blocked).
    abandoned_migrations: u64,
}

impl Controller {
    /// Builds a controller over `problem` starting from `placement`.
    /// Estimates start at the problem's own (quantized) correlations with
    /// zero drift.
    ///
    /// # Panics
    ///
    /// Panics when the placement does not match the problem's dimensions
    /// or the configuration is degenerate (zero `evaluate_every` or
    /// `scope_count`).
    #[must_use]
    pub fn new(problem: &CcaProblem, placement: Placement, mut config: ControllerConfig) -> Self {
        assert_eq!(placement.num_objects(), problem.num_objects());
        assert_eq!(placement.num_nodes(), problem.num_nodes());
        assert!(config.evaluate_every >= 1, "evaluate_every must be >= 1");
        assert!(config.scope_count >= 1, "scope_count must be >= 1");
        config
            .domains
            .get_or_insert_with(|| DomainTree::flat(problem.num_nodes()));

        let n = problem.num_objects();
        let scope_count = config.scope_count.min(n.max(1));
        let mut scope_of = vec![0usize; n];
        for s in 0..scope_count {
            let (start, end) = (s * n / scope_count, (s + 1) * n / scope_count);
            for o in scope_of.iter_mut().take(end).skip(start) {
                *o = s;
            }
        }

        let pairs = problem.pairs();
        let mut est_r = Vec::with_capacity(pairs.len());
        let mut comm_cost = Vec::with_capacity(pairs.len());
        let mut edge_of_pair = HashMap::with_capacity(pairs.len());
        let mut scope_edges = vec![Vec::new(); scope_count];
        for (e, p) in pairs.iter().enumerate() {
            est_r.push(quantize_estimate(p.correlation));
            comm_cost.push(p.comm_cost);
            let (a, b) = (p.a.0.min(p.b.0), p.a.0.max(p.b.0));
            edge_of_pair.insert((a, b), e as u32);
            scope_edges[scope_of[a as usize]].push(e as u32);
        }
        let placed_r = est_r.clone();
        let obs_scratch = vec![0.0; pairs.len()];

        Controller {
            live_capacities: (0..problem.num_nodes())
                .map(|k| problem.capacity(k))
                .collect(),
            dead: vec![false; problem.num_nodes()],
            base: problem.clone(),
            placement,
            est_r,
            placed_r,
            comm_cost,
            edge_of_pair,
            scope_of,
            scope_edges,
            scopes: vec![ScopeState::default(); scope_count],
            tally: ControllerReport::default(),
            obs_scratch,
            pending_migration: None,
            abandoned_migrations: 0,
            config,
        }
    }

    /// The live placement.
    #[must_use]
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Epochs stepped so far.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.tally.epochs
    }

    /// Surviving node count.
    #[must_use]
    pub fn alive_nodes(&self) -> usize {
        self.dead.iter().filter(|&&d| !d).count()
    }

    /// Accumulated loss of one scope (bytes of forgone savings).
    ///
    /// # Panics
    ///
    /// Panics if `scope` is out of range.
    #[must_use]
    pub fn accumulated_loss(&self, scope: usize) -> f64 {
        self.scopes[scope].accumulated_loss
    }

    /// The current EWMA correlation estimate of base edge `e` (in
    /// [`EdgeId`](crate::graph::EdgeId) order).
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    #[must_use]
    pub fn estimate(&self, e: usize) -> f64 {
        self.est_r[e]
    }

    /// Ingests one epoch of observations and, on the evaluation cadence,
    /// runs the drift-detect → scoped-solve → gate → migrate pipeline.
    pub fn step(&mut self, obs: &EpochObservation) -> EpochOutcome {
        self.tally.epochs += 1;
        self.tally.queries = self.tally.queries.saturating_add(obs.queries);
        self.update_estimates(obs);

        if !self.tally.epochs.is_multiple_of(self.config.evaluate_every) {
            return EpochOutcome::Idle;
        }
        if self.pending_migration.is_some() {
            // One migration in flight at a time: evaluation pauses until
            // the staged schedule drains (or is abandoned) through
            // `advance_migration`, so a half-shipped placement is never
            // measured for drift or re-solved against.
            return EpochOutcome::Idle;
        }
        let Some((scope, drift)) = self.pick_scope() else {
            return EpochOutcome::Idle; // every scope is backing off
        };
        if drift < DRIFT_THRESHOLD {
            return EpochOutcome::NoDrift { scope, drift };
        }
        self.evaluate_scope(scope)
    }

    /// Ships one byte-budgeted slice of the staged migration (if any),
    /// mutating the live placement in place. The live runtime calls this
    /// once per epoch *before* the serving window, so the placement swap
    /// is atomic between windows and the slice's bytes are the epoch's
    /// migration traffic.
    ///
    /// Returns `None` when no migration is staged. A stalled slice
    /// (nothing movable under the budget and surviving capacities)
    /// abandons the schedule — counted by
    /// [`abandoned_migrations`](Controller::abandoned_migrations) — so
    /// the loop can never wedge on an unshippable candidate.
    pub fn advance_migration(&mut self) -> Option<MigrationSlice> {
        let mut schedule = self.pending_migration.take()?;
        let budget = self.config.migration_budget_per_epoch.unwrap_or(u64::MAX);
        let est = self.estimated_problem();
        let slice = schedule.advance(&est, &mut self.placement, budget);
        self.tally.objects_moved += slice.moves;
        self.tally.migrated_bytes += slice.bytes;
        if slice.stalled {
            self.abandoned_migrations += 1;
        } else if !slice.complete {
            self.pending_migration = Some(schedule);
        }
        Some(slice)
    }

    /// Whether an accepted migration is still being shipped.
    #[must_use]
    pub fn migration_in_progress(&self) -> bool {
        self.pending_migration.is_some()
    }

    /// Staged migrations abandoned because a slice stalled.
    #[must_use]
    pub fn abandoned_migrations(&self) -> u64 {
        self.abandoned_migrations
    }

    /// Drops `drop_nodes` surviving nodes (chosen by `seed`, never the
    /// last one) and repairs the placement onto the survivors with
    /// bounded escalating-slack retries. The loop continues even when
    /// repair cannot regain feasibility (`recovered == false`);
    /// [`ControllerReport::final_feasible`] and the CLI exit taxonomy
    /// surface it. Returns `None` when `drop_nodes` is zero or only one
    /// node survives.
    pub fn inject_fault(&mut self, drop_nodes: usize, seed: u64) -> Option<FaultRecovery> {
        if drop_nodes == 0 {
            return None;
        }
        let alive: Vec<usize> = (0..self.dead.len()).filter(|&k| !self.dead[k]).collect();
        if alive.len() <= 1 {
            return None;
        }
        // The resilience harness's seeded pick over the surviving nodes;
        // at least one node survives.
        let dropped = pick_dead_nodes(alive, drop_nodes, seed ^ 0x6e6f6465);
        for &k in &dropped {
            self.dead[k] = true;
            self.live_capacities[k] = 0;
            self.tally.node_losses += 1;
        }

        // Repair against the estimated weights: survive_node_loss
        // re-packs the displaced objects and polishes in place; slack
        // escalates by ¼ per retry.
        let est = self.estimated_problem();
        let mut retries = 0u32;
        let (repaired, moves, bytes, recovered) = loop {
            let slack = CAPACITY_SLACK + 0.25 * f64::from(retries);
            let (degraded, repaired, info) =
                survive_node_loss(&est, &self.placement, &dropped, slack);
            let ok = repaired.within_all_capacities(&degraded, CAPACITY_SLACK);
            if ok || retries >= MAX_REPAIR_RETRIES {
                break (repaired, info.moves as u64, info.migrated_bytes, ok);
            }
            retries += 1;
        };
        self.placement = repaired;
        self.tally.repairs += 1;
        self.tally.repair_retries += u64::from(retries);
        self.tally.repair_moves += moves;
        self.tally.repair_bytes += bytes;
        if !recovered {
            self.tally.unrecovered_losses += 1;
        }
        Some(FaultRecovery {
            dropped_nodes: dropped,
            retries,
            moves,
            bytes,
            recovered,
        })
    }

    /// End-of-run account; cheap enough to call at any epoch.
    #[must_use]
    pub fn report(&self) -> ControllerReport {
        let est = self.estimated_problem();
        ControllerReport {
            accumulated_loss: self.scopes.iter().map(|s| s.accumulated_loss).sum(),
            // `+ 0.0` turns the empty cost fold's `-0.0` (no split edge)
            // into `0.0` and leaves every other value's bits unchanged.
            final_cost: est.eval_cost(&self.placement, self.config.threads) + 0.0,
            final_feasible: self.placement.within_all_capacities(&est, CAPACITY_SLACK),
            ..self.tally.clone()
        }
    }

    /// EWMA update: every base edge decays toward its observed
    /// correlation (zero when unobserved) and is re-quantized onto the
    /// dyadic grid. Order-independent per edge, so observation order and
    /// map iteration order never matter.
    fn update_estimates(&mut self, obs: &EpochObservation) {
        if obs.queries == 0 {
            return;
        }
        let q = obs.queries as f64;
        let mut touched: Vec<u32> = Vec::with_capacity(obs.pair_counts.len());
        for &(a, b, count) in &obs.pair_counts {
            let key = (a.0.min(b.0), a.0.max(b.0));
            if let Some(&e) = self.edge_of_pair.get(&key) {
                if self.obs_scratch[e as usize] == 0.0 {
                    touched.push(e);
                }
                self.obs_scratch[e as usize] += count as f64 / q;
            }
        }
        for (e, est) in self.est_r.iter_mut().enumerate() {
            let observed = self.obs_scratch[e].min(1.0);
            *est = quantize_estimate((1.0 - EWMA_ALPHA) * *est + EWMA_ALPHA * observed);
        }
        for e in touched {
            self.obs_scratch[e as usize] = 0.0;
        }
    }

    /// Relative L1 drift of a scope's estimated weights against the
    /// placed-against snapshot.
    fn scope_drift(&self, s: usize) -> f64 {
        let mut gap = 0.0;
        let mut base = 0.0;
        for &e in &self.scope_edges[s] {
            let e = e as usize;
            let w = self.comm_cost[e];
            gap += (self.est_r[e] - self.placed_r[e]).abs() * w;
            base += self.placed_r[e] * w;
        }
        gap / base.max(1.0)
    }

    /// The eligible (not backing off, non-empty) scope with the largest
    /// drift; ties break toward the smaller index.
    fn pick_scope(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for s in 0..self.scopes.len() {
            if self.scopes[s].backoff_until > self.tally.epochs || self.scope_edges[s].is_empty() {
                continue;
            }
            let d = self.scope_drift(s);
            if best.is_none_or(|(_, bd)| d > bd) {
                best = Some((s, d));
            }
        }
        best
    }

    /// Rebuilds the estimated problem: base objects, edges and secondary
    /// resources with the current (dyadic) correlation estimates and the
    /// surviving storage capacities. Zero estimates drop out of the built
    /// edge set, which is harmless — `est_r`/`placed_r` stay indexed by
    /// base edges.
    fn estimated_problem(&self) -> CcaProblem {
        let mut b = CcaProblem::builder();
        for o in self.base.objects() {
            b.add_object(self.base.name(o), self.base.size(o));
        }
        for (e, p) in self.base.pairs().iter().enumerate() {
            b.add_pair(p.a, p.b, self.est_r[e], p.comm_cost)
                .expect("base pairs stay valid under quantized estimates");
        }
        for res in self.base.resources() {
            b.add_resource(res.clone());
        }
        let mut est = b
            .capacities(self.live_capacities.clone())
            .build()
            .expect("estimated problem mirrors the valid base problem");
        // The base problem's shard count carries over (results are
        // identical for any count).
        if let Some(s) = self.base.sharded() {
            est.set_sharding(s.shard_count(), self.config.threads);
        }
        est
    }

    /// Top `SCOPE_TOP` objects of scope `s` by incident estimated weight
    /// (ties toward the smaller id), ascending by id.
    fn scope_selection(&self, s: usize) -> Vec<ObjectId> {
        let mut incident: HashMap<u32, f64> = HashMap::new();
        for &e in &self.scope_edges[s] {
            let p = &self.base.pairs()[e as usize];
            let w = self.est_r[e as usize] * self.comm_cost[e as usize];
            for o in [p.a.0, p.b.0] {
                if self.scope_of[o as usize] == s {
                    *incident.entry(o).or_insert(0.0) += w;
                }
            }
        }
        let mut ranked: Vec<(u32, f64)> = incident.into_iter().collect();
        // `total_cmp`, not `partial_cmp(..).unwrap()`: the weights are
        // non-negative finite sums so the order is unchanged, and a NaN
        // benefit estimate can no longer panic the controller mid-run.
        ranked.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
        ranked.truncate(SCOPE_TOP);
        let mut keep: Vec<ObjectId> = ranked.into_iter().map(|(o, _)| ObjectId(o)).collect();
        keep.sort_unstable();
        keep
    }

    /// The drift-triggered evaluation: scoped resilient re-solve, batched
    /// scoring, accrual, and the worthwhile / robust gates.
    fn evaluate_scope(&mut self, s: usize) -> EpochOutcome {
        let cfg = self.config.clone();
        let est = self.estimated_problem();
        let keep = self.scope_selection(s);
        if keep.is_empty() {
            return EpochOutcome::NoDrift {
                scope: s,
                drift: 0.0,
            };
        }

        // Out-of-scope objects keep their nodes; the subproblem sees only
        // the capacity they leave behind.
        let mut residual: Vec<u64> = self.placement.loads(&est);
        for &o in &keep {
            residual[self.placement.node_of(o)] -= est.size(o);
        }
        let sub_caps: Vec<u64> = self
            .live_capacities
            .iter()
            .zip(&residual)
            .map(|(&cap, &used)| cap.saturating_sub(used))
            .collect();
        // `restrict_to` carries the estimate's sharding over to `sub`.
        let (sub, ids) = est.restrict_to(&keep);
        let sub = sub
            .with_capacities(sub_caps)
            .expect("residual capacities are at most the problem's own");

        let options = ResilienceOptions {
            deadline: cfg.deadline,
            start: SOLVE_START,
            floor: SOLVE_FLOOR,
            threads: cfg.threads,
            ..ResilienceOptions::default()
        };
        let solved = solve_resilient(&sub, &options);
        if solved.report.degraded {
            self.tally.degradations += 1;
            let state = &mut self.scopes[s];
            if state.consecutive_degraded < MAX_SOLVE_RETRIES {
                // Bounded exponential backoff, then retry; the scope never
                // stalls silently — after MAX_SOLVE_RETRIES the degraded
                // candidate proceeds to the gates below.
                let shift = state.consecutive_degraded.min(6);
                let retry_at = self.tally.epochs + (BACKOFF_EPOCHS << shift).max(1);
                state.consecutive_degraded += 1;
                state.backoff_until = retry_at;
                self.tally.solve_retries += 1;
                return EpochOutcome::SolveDegraded { scope: s, retry_at };
            }
        }
        self.scopes[s].consecutive_degraded = 0;

        let mut candidate = self.placement.clone();
        for (sub_idx, &orig) in ids.iter().enumerate() {
            candidate.assign(orig, solved.placement.node_of(ObjectId(sub_idx as u32)));
        }

        // One batched CSR walk scores incumbent and candidate together.
        let mut batch = PlacementBatch::new(est.num_objects(), est.num_nodes());
        batch.push(&self.placement);
        batch.push(&candidate);
        let costs = est.eval_cost_batch(&batch, cfg.threads);
        let saving_per_query = (costs[0] - costs[1]).max(0.0);
        let bytes = migration_bytes(&est, &self.placement, &candidate);

        // Accrue the loss incurred since this scope's last verdict, then
        // gate: the migration must amortize within the horizon counting
        // what rejecting has already cost us (SkyPie MigrationOptimizer).
        let epoch = self.tally.epochs;
        let mean_queries = self.tally.queries as f64 / epoch as f64;
        let per_epoch_saving = saving_per_query * mean_queries;
        let since = epoch - self.scopes[s].last_eval;
        self.scopes[s].accumulated_loss += per_epoch_saving * since as f64;
        self.scopes[s].last_eval = epoch;
        self.tally.evaluated += 1;

        let projected =
            self.scopes[s].accumulated_loss + per_epoch_saving * cfg.horizon_epochs as f64;
        if saving_per_query <= 0.0 || projected <= bytes as f64 {
            self.tally.rejected_not_worthwhile += 1;
            return EpochOutcome::RejectedNotWorthwhile {
                scope: s,
                projected,
                migration_bytes: bytes,
                accumulated_loss: self.scopes[s].accumulated_loss,
            };
        }

        if !self.candidate_is_robust(&est, &candidate) {
            self.tally.rejected_not_robust += 1;
            return EpochOutcome::RejectedNotRobust { scope: s };
        }

        let migrate = MigrateOptions {
            capacity_slack: CAPACITY_SLACK,
            ..MigrateOptions::default()
        };
        // Acceptance bookkeeping is identical either way: the migration
        // counts, the regret ledger resets, and the drift baseline snaps
        // to the estimates the candidate was solved against.
        self.tally.migrations += 1;
        self.scopes[s].accumulated_loss = 0.0;
        for &e in &self.scope_edges[s] {
            self.placed_r[e as usize] = self.est_r[e as usize];
        }
        if cfg.migration_budget_per_epoch.is_some() {
            self.pending_migration = Some(MigrationSchedule::new(candidate, migrate));
            return EpochOutcome::MigrationScheduled {
                scope: s,
                total_bytes: bytes,
                saving_per_query,
            };
        }
        let outcome = reconcile(&est, &self.placement, &candidate, u64::MAX, &migrate);
        self.placement = outcome.placement;
        self.tally.objects_moved += outcome.moves as u64;
        self.tally.migrated_bytes += outcome.migrated_bytes;
        EpochOutcome::Migrated {
            scope: s,
            moves: outcome.moves as u64,
            bytes: outcome.migrated_bytes,
            saving_per_query,
        }
    }

    /// The robustness gate: the candidate must fit the surviving
    /// capacities outright, and — when at least two leaf domains of the
    /// [`ControllerConfig::domains`] tree (with the flat default, two
    /// nodes) have an alive node — a [`survive_node_loss`] probe dropping
    /// every alive node of the heaviest-loaded surviving domain must
    /// repair back to feasibility under the controller's slack.
    fn candidate_is_robust(&self, est: &CcaProblem, candidate: &Placement) -> bool {
        if !candidate.within_all_capacities(est, CAPACITY_SLACK) {
            return false;
        }
        let tree = (self.config.domains.as_ref()).expect("Controller::new resolves the tree");
        let loads = candidate.loads(est);
        // Heaviest-loaded surviving domain, summing alive members; ties
        // toward the smaller domain id.
        let alive_load = |d: usize| -> Option<u64> {
            let alive: Vec<&usize> = tree
                .nodes_in(d)
                .iter()
                .filter(|&&n| !self.dead[n])
                .collect();
            if alive.is_empty() {
                None
            } else {
                Some(alive.iter().map(|&&n| loads[n]).sum())
            }
        };
        let probe = (0..tree.num_domains())
            .filter_map(|d| alive_load(d).map(|l| (d, l)))
            .max_by(|&(da, la), &(db, lb)| la.cmp(&lb).then(db.cmp(&da)));
        let Some((probe, _)) = probe else {
            return false;
        };
        let alive_domains = (0..tree.num_domains())
            .filter(|&d| alive_load(d).is_some())
            .count();
        if alive_domains <= 1 {
            return true; // no second domain to lose
        }
        let probe_nodes: Vec<usize> = tree
            .nodes_in(probe)
            .iter()
            .copied()
            .filter(|&n| !self.dead[n])
            .collect();
        survive_node_loss(est, candidate, &probe_nodes, CAPACITY_SLACK)
            .2
            .feasible
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 8 objects on 3 nodes, two natural clusters per scope half.
    fn base_problem() -> CcaProblem {
        let mut b = CcaProblem::builder();
        for i in 0..8 {
            b.add_object(format!("o{i}"), 4);
        }
        let o = |i: u32| ObjectId(i);
        // Strong intra-cluster edges, weak cross edges (all tracked).
        b.add_pair(o(0), o(1), 0.5, 8.0).unwrap();
        b.add_pair(o(2), o(3), 0.5, 8.0).unwrap();
        b.add_pair(o(0), o(2), 0.03125, 8.0).unwrap();
        b.add_pair(o(1), o(3), 0.03125, 8.0).unwrap();
        b.add_pair(o(4), o(5), 0.5, 8.0).unwrap();
        b.add_pair(o(6), o(7), 0.5, 8.0).unwrap();
        b.add_pair(o(4), o(6), 0.03125, 8.0).unwrap();
        b.add_pair(o(5), o(7), 0.03125, 8.0).unwrap();
        b.uniform_capacities(3, 16).build().unwrap()
    }

    fn config() -> ControllerConfig {
        ControllerConfig {
            evaluate_every: 4,
            horizon_epochs: 64,
            scope_count: 2,
            ..ControllerConfig::default()
        }
    }

    /// Observations that flip the first cluster: (0,2)/(1,3) become the
    /// strong pairs, (0,1)/(2,3) go quiet.
    fn flipped_obs() -> EpochObservation {
        let o = |i: u32| ObjectId(i);
        EpochObservation {
            pair_counts: vec![
                (o(0), o(2), 32),
                (o(1), o(3), 32),
                (o(4), o(5), 32),
                (o(6), o(7), 32),
            ],
            queries: 64,
        }
    }

    /// Steady observations matching the base correlations exactly
    /// (strong pairs at 32/64 = 0.5, weak pairs at 2/64 = 0.03125), so
    /// the EWMA estimates are fixed points and drift stays zero.
    fn steady_obs() -> EpochObservation {
        let o = |i: u32| ObjectId(i);
        EpochObservation {
            pair_counts: vec![
                (o(0), o(1), 32),
                (o(2), o(3), 32),
                (o(0), o(2), 2),
                (o(1), o(3), 2),
                (o(4), o(5), 32),
                (o(6), o(7), 32),
                (o(4), o(6), 2),
                (o(5), o(7), 2),
            ],
            queries: 64,
        }
    }

    fn start_placement(problem: &CcaProblem) -> Placement {
        crate::greedy::greedy_placement(problem)
    }

    #[test]
    fn quantize_snaps_to_dyadic_grid() {
        let q = quantize_estimate(0.1);
        assert_eq!(q, (0.1f64 * EST_GRID).round() / EST_GRID);
        assert_eq!((q * EST_GRID).fract(), 0.0, "estimate is on the grid");
        assert_eq!(quantize_estimate(0.0), 0.0);
        assert_eq!(quantize_estimate(1.0), 1.0);
        assert_eq!(
            quantize_estimate(0.25),
            0.25,
            "dyadic values are fixed points"
        );
    }

    #[test]
    fn steady_traffic_never_migrates() {
        let p = base_problem();
        let mut c = Controller::new(&p, start_placement(&p), config());
        for _ in 0..64 {
            let out = c.step(&steady_obs());
            assert!(
                matches!(out, EpochOutcome::Idle | EpochOutcome::NoDrift { .. }),
                "steady traffic must not trigger solves: {out:?}"
            );
        }
        let r = c.report();
        assert_eq!(r.migrations, 0);
        assert_eq!(r.evaluated, 0);
        assert!(r.counters_consistent());
        assert!(r.final_feasible);
    }

    #[test]
    fn drift_triggers_gated_migration_and_counters_stay_consistent() {
        let p = base_problem();
        let mut c = Controller::new(&p, start_placement(&p), config());
        let mut migrated = false;
        for _ in 0..128 {
            if let EpochOutcome::Migrated {
                saving_per_query, ..
            } = c.step(&flipped_obs())
            {
                migrated = true;
                assert!(saving_per_query > 0.0);
            }
        }
        assert!(migrated, "a persistent flip must eventually migrate");
        let r = c.report();
        assert!(r.migrations >= 1);
        assert!(r.counters_consistent(), "{r:?}");
        assert!(r.final_feasible);
        // The migrated placement co-locates the new strong pairs.
        let pl = c.placement();
        assert_eq!(pl.node_of(ObjectId(0)), pl.node_of(ObjectId(2)));
        assert_eq!(pl.node_of(ObjectId(1)), pl.node_of(ObjectId(3)));
    }

    #[test]
    fn accumulated_loss_is_monotone_and_resets_on_migration() {
        let p = base_problem();
        // A huge horizon denominator: force rejections first by making
        // migration look expensive (tiny horizon).
        let cfg = ControllerConfig {
            horizon_epochs: 1,
            ..config()
        };
        let mut c = Controller::new(&p, start_placement(&p), cfg);
        let mut last = [0.0f64; 2];
        let mut saw_reject = false;
        let mut saw_reset = false;
        for _ in 0..256 {
            match c.step(&flipped_obs()) {
                EpochOutcome::RejectedNotWorthwhile {
                    scope,
                    accumulated_loss,
                    ..
                } => {
                    saw_reject = true;
                    assert!(
                        accumulated_loss + 1e-12 >= last[scope],
                        "accumulated loss decreased without a migration: \
                         {accumulated_loss} < {}",
                        last[scope]
                    );
                    last[scope] = accumulated_loss;
                }
                EpochOutcome::Migrated { scope, .. } => {
                    saw_reset = true;
                    assert_eq!(c.accumulated_loss(scope), 0.0, "loss resets on acceptance");
                    last[scope] = 0.0;
                }
                _ => {}
            }
        }
        assert!(saw_reject, "the 1-epoch horizon must reject at least once");
        assert!(
            saw_reset,
            "accrued loss must eventually pay for the migration"
        );
        assert!(c.report().counters_consistent());
    }

    #[test]
    fn node_loss_repairs_and_loop_continues() {
        let p = base_problem();
        let mut c = Controller::new(&p, start_placement(&p), config());
        for _ in 0..8 {
            c.step(&steady_obs());
        }
        let rec = c
            .inject_fault(1, 7)
            .expect("three nodes: a loss is injectable");
        assert_eq!(rec.dropped_nodes.len(), 1);
        assert!(rec.recovered, "24 spare bytes: repair must converge");
        assert_eq!(c.alive_nodes(), 2);
        // The dead node holds nothing.
        let dead = rec.dropped_nodes[0];
        let loads = c.placement().loads(&p);
        assert_eq!(loads[dead], 0);
        for _ in 0..32 {
            c.step(&steady_obs());
        }
        let r = c.report();
        assert_eq!(r.node_losses, 1);
        assert_eq!(r.repairs, 1);
        assert_eq!(r.unrecovered_losses, 0);
        assert!(r.final_feasible);
        assert!(r.degraded(), "a node loss marks the run degraded");
        assert!(r.counters_consistent());
    }

    #[test]
    fn unrecoverable_loss_is_flagged_but_never_panics() {
        // 2 nodes at exactly total size: losing one cannot fit.
        let mut b = CcaProblem::builder();
        for i in 0..4 {
            b.add_object(format!("o{i}"), 4);
        }
        b.add_pair(ObjectId(0), ObjectId(1), 0.5, 4.0).unwrap();
        let p = b.uniform_capacities(2, 8).build().unwrap();
        let mut c = Controller::new(&p, start_placement(&p), config());
        let rec = c.inject_fault(1, 3).expect("two nodes: one may die");
        assert!(!rec.recovered, "16 bytes cannot fit one 8-byte node");
        let out = c.step(&steady_obs());
        assert!(matches!(
            out,
            EpochOutcome::Idle | EpochOutcome::NoDrift { .. }
        ));
        let r = c.report();
        assert_eq!(r.unrecovered_losses, 1);
        assert!(!r.final_feasible);
        assert!(r.counters_consistent());
    }

    #[test]
    fn fragile_cluster_rejects_not_robust() {
        // 2 nodes filled to the brim: any migration candidate fails the
        // survive-one-node-loss probe (8 surviving bytes cannot hold 16),
        // so worthwhile flips are still rejected as not robust.
        let mut b = CcaProblem::builder();
        for i in 0..4 {
            b.add_object(format!("o{i}"), 4);
        }
        let o = |i: u32| ObjectId(i);
        b.add_pair(o(0), o(1), 0.5, 8.0).unwrap();
        b.add_pair(o(2), o(3), 0.5, 8.0).unwrap();
        b.add_pair(o(0), o(2), 0.03125, 8.0).unwrap();
        b.add_pair(o(1), o(3), 0.03125, 8.0).unwrap();
        let p = b.uniform_capacities(2, 8).build().unwrap();
        let cfg = ControllerConfig {
            scope_count: 1,
            ..config()
        };
        let mut c = Controller::new(&p, start_placement(&p), cfg);
        let flip = EpochObservation {
            pair_counts: vec![(o(0), o(2), 32), (o(1), o(3), 32)],
            queries: 64,
        };
        let mut not_robust = 0;
        for _ in 0..64 {
            if matches!(c.step(&flip), EpochOutcome::RejectedNotRobust { .. }) {
                not_robust += 1;
            }
        }
        let r = c.report();
        assert!(
            not_robust > 0,
            "the flip must pass worthwhile and fail robust: {r:?}"
        );
        assert_eq!(r.migrations, 0, "a fragile migration must never be applied");
        assert_eq!(r.rejected_not_robust, not_robust);
        assert!(r.counters_consistent());
    }

    #[test]
    fn fault_on_last_survivor_is_refused() {
        let p = base_problem();
        let mut c = Controller::new(&p, start_placement(&p), config());
        assert!(c.inject_fault(1, 1).is_some());
        assert!(c.inject_fault(1, 2).is_some());
        assert_eq!(c.alive_nodes(), 1);
        assert!(c.inject_fault(1, 3).is_none(), "the last node survives");
    }

    #[test]
    fn colocated_placement_reports_positive_zero_cost() {
        let p = base_problem();
        let c = Controller::new(&p, Placement::new(vec![0; 8], 3), config());
        let r = c.report();
        assert_eq!(r.final_cost.to_bits(), 0.0f64.to_bits(), "{r:?}");
        assert!(r.summary().contains("final: cost 0.00,"), "{}", r.summary());
    }

    #[test]
    fn shard_and_thread_config_do_not_change_decisions() {
        let mut reference: Option<(Vec<u32>, u64, u64)> = None;
        for (threads, shards) in [(1, 0), (2, 2), (8, 7), (2, 1)] {
            let mut p = base_problem();
            if shards > 0 {
                p.set_sharding(shards, threads);
            }
            let cfg = ControllerConfig {
                threads,
                ..config()
            };
            let mut c = Controller::new(&p, start_placement(&p), cfg);
            for _ in 0..96 {
                c.step(&flipped_obs());
            }
            let r = c.report();
            let key = (c.placement().as_slice().to_vec(), r.migrations, r.evaluated);
            match &reference {
                None => reference = Some(key),
                Some(want) => assert_eq!(
                    &key, want,
                    "threads={threads} shards={shards} diverged from the reference run"
                ),
            }
        }
    }

    #[test]
    fn budgeted_migration_ships_in_bounded_slices() {
        let p = base_problem();
        let budget = 8u64; // objects are 4 bytes: at most two per slice
        let cfg = ControllerConfig {
            migration_budget_per_epoch: Some(budget),
            ..config()
        };
        let mut c = Controller::new(&p, start_placement(&p), cfg);
        let mut scheduled = false;
        let mut shipped = 0u64;
        for _ in 0..128 {
            // The live-runtime driving order: slice first, then step.
            if let Some(slice) = c.advance_migration() {
                assert!(slice.bytes <= budget, "slice over budget: {slice:?}");
                assert!(!slice.stalled, "feasible schedule stalled: {slice:?}");
                shipped += slice.bytes;
            }
            match c.step(&flipped_obs()) {
                EpochOutcome::MigrationScheduled {
                    total_bytes,
                    saving_per_query,
                    ..
                } => {
                    scheduled = true;
                    assert!(total_bytes > 0);
                    assert!(saving_per_query > 0.0);
                }
                EpochOutcome::Migrated { .. } => {
                    panic!("a budgeted controller must stage, never bulk-apply")
                }
                _ => {}
            }
        }
        while c.migration_in_progress() {
            shipped += c.advance_migration().expect("in progress").bytes;
        }
        assert!(
            scheduled,
            "a persistent flip must eventually stage a migration"
        );
        let r = c.report();
        assert!(r.migrations >= 1);
        assert_eq!(
            r.migrated_bytes, shipped,
            "report accrues exactly the slices"
        );
        assert!(r.counters_consistent());
        assert_eq!(c.abandoned_migrations(), 0);
        assert!(r.final_feasible);
        // The shipped schedule co-locates the new strong pairs.
        let pl = c.placement();
        assert_eq!(pl.node_of(ObjectId(0)), pl.node_of(ObjectId(2)));
        assert_eq!(pl.node_of(ObjectId(1)), pl.node_of(ObjectId(3)));
    }

    #[test]
    fn evaluation_pauses_while_a_migration_is_in_flight() {
        let p = base_problem();
        let cfg = ControllerConfig {
            migration_budget_per_epoch: Some(4), // one object per slice
            ..config()
        };
        let mut c = Controller::new(&p, start_placement(&p), cfg);
        let mut pending_evals = 0;
        for _ in 0..256 {
            if c.migration_in_progress() {
                // Deliberately never advance: the schedule stays pending,
                // so even evaluation-cadence epochs must stay Idle.
                let out = c.step(&flipped_obs());
                assert_eq!(out, EpochOutcome::Idle);
                pending_evals += 1;
                if pending_evals >= 8 {
                    break;
                }
            } else {
                let _ = c.step(&flipped_obs());
            }
        }
        assert!(pending_evals >= 8, "a migration must have been staged");
        while c.migration_in_progress() {
            let slice = c.advance_migration().expect("in progress");
            assert!(slice.bytes <= 4);
            assert!(!slice.stalled);
        }
        assert!(c.report().counters_consistent());
    }

    #[test]
    fn observations_for_unknown_pairs_are_ignored() {
        let p = base_problem();
        let mut c = Controller::new(&p, start_placement(&p), config());
        let obs = EpochObservation {
            pair_counts: vec![(ObjectId(0), ObjectId(7), 64)], // not a base edge
            queries: 64,
        };
        let before: Vec<f64> = (0..p.pairs().len()).map(|e| c.estimate(e)).collect();
        c.step(&obs);
        // Known edges decayed toward zero; the unknown pair changed nothing else.
        for (e, &b) in before.iter().enumerate() {
            assert!(c.estimate(e) <= b);
        }
        assert!(c.report().counters_consistent());
    }

    /// The estimate keeps the base problem's secondary resources (paper
    /// §3.3): a placement that overloads bandwidth is not feasible.
    #[test]
    fn estimate_keeps_secondary_resources() {
        let mut b = CcaProblem::builder();
        let x = b.add_object("x", 10);
        let y = b.add_object("y", 10);
        b.add_pair(x, y, 0.5, 8.0).unwrap();
        b.add_resource(crate::Resource::new("bw", vec![10, 10], vec![10, 10]));
        let p = b.uniform_capacities(2, 100).build().unwrap();
        let start = Placement::new(vec![0, 0], 2);
        assert!(!start.within_all_capacities(&p, CAPACITY_SLACK));
        let c = Controller::new(&p, start, config());
        assert!(!c.report().final_feasible);
        assert_eq!(c.estimated_problem().resources(), p.resources());
    }
}
