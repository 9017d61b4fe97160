//! LP relaxation of the CCA problem via delayed cut generation.
//!
//! The literal Figure-4 relaxation carries `|E|·|N|` auxiliary `y`
//! variables and `2·|E|·|N|` rows. This module solves the **same** LP with
//! an equivalent epigraph formulation that stays small:
//!
//! * variables: `x_{i,k}` plus one `z_e` per correlated pair, with
//!   objective `Σ_e r·w·z_e`;
//! * static rows: assignment (`Σ_k x_{i,k} = 1`) and capacity
//!   (`Σ_i s_i·x_{i,k} <= c_k`);
//! * generated rows: for a sign pattern `σ ∈ {−1,0,+1}^N`,
//!   `z_e >= ½ Σ_k σ_k (x_{i,k} − x_{j,k})`.
//!
//! Because `max_σ ½ Σ_k σ_k (x_{i,k} − x_{j,k}) = ½ Σ_k |x_{i,k} − x_{j,k}|
//! = z^Fig4_e`, separation is exact: given a candidate solution, the most
//! violated pattern is `σ_k = sign(x_{i,k} − x_{j,k})`. Iterating
//! solve-separate-add converges to the Figure-4 optimum in finitely many
//! rounds (there are finitely many sign patterns), and the tests verify the
//! two formulations agree numerically.

use crate::figure4::{add_placement_rows, add_x_columns};
use crate::fractional::FractionalPlacement;
use crate::graph::EdgeId;
use crate::placement::Placement;
use crate::problem::CcaProblem;
use cca_lp::{Col, LpError, Model, Relation, SolverOptions};
use std::collections::HashSet;

/// How the fractional solution handed to Algorithm 2.1 is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RelaxMethod {
    /// Capacity-bounded clustering + first-fit-decreasing packing (see
    /// [`construct_clustered_vertex`]). Not LP-*optimal* — the LP optimum
    /// is a degenerate 0 (see [`construct_optimal_vertex`]) — but the
    /// fractional solution whose Algorithm-2.1 rounding actually yields
    /// the balanced, low-communication placements the paper reports. The
    /// default.
    #[default]
    ClusteredVertex,
    /// Construct an exactly LP-optimal vertex combinatorially (see
    /// [`construct_optimal_vertex`]). Demonstrates the relaxation's
    /// degeneracy; rounding it co-locates whole correlation components.
    CombinatorialVertex,
    /// Solve by simplex with delayed cut generation. Exercises the full LP
    /// machinery; used for cross-validation and small instances.
    CuttingPlane,
}

/// Why [`solve_relaxation`] stopped (see [`RelaxOutcome::stop`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// Separation found no violated cut: the Figure-4 optimum was reached.
    Converged,
    /// [`RelaxOptions::max_rounds`] solve/separate rounds were exhausted.
    RoundLimit,
    /// One round's simplex hit the per-solve cap
    /// [`SolverOptions::max_iterations`]; the outcome holds the best
    /// fractional solution found so far.
    IterationCap,
    /// The wall-clock deadline ([`SolverOptions::deadline`]) passed; the
    /// outcome holds the best fractional solution found so far.
    Deadline,
    /// The simplex raised a numerical-health alarm (non-finite values or a
    /// stalled objective) after at least one clean round; the outcome holds
    /// the last healthy fractional solution.
    NumericalAlarm,
}

impl StopReason {
    /// Short machine-readable label (used in degradation reports).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::RoundLimit => "round-limit",
            StopReason::IterationCap => "iteration-cap",
            StopReason::Deadline => "deadline",
            StopReason::NumericalAlarm => "numerical-alarm",
        }
    }
}

/// A cut must be violated by more than this to be added.
const CUT_TOLERANCE: f64 = 1e-6;

/// At most this many cuts are added per round (most violated first).
const MAX_CUTS_PER_ROUND: usize = 8192;

/// Entries of `|x_{i,k} − x_{j,k}|` below this are given `σ_k = 0`,
/// keeping cut rows sparse.
const SIGN_EPSILON: f64 = 1e-9;

/// Options for [`solve_relaxation`].
#[derive(Debug, Clone)]
pub struct RelaxOptions {
    /// Solution method.
    pub method: RelaxMethod,
    /// Maximum solve/separate rounds before giving up (the outcome then has
    /// `converged = false` and its objective is a lower bound).
    pub max_rounds: usize,
    /// Options forwarded to the sparse simplex.
    pub solver: SolverOptions,
    /// Use the dense reference simplex instead (tiny instances / tests).
    pub use_dense_solver: bool,
}

impl Default for RelaxOptions {
    fn default() -> Self {
        RelaxOptions {
            method: RelaxMethod::default(),
            max_rounds: 60,
            solver: SolverOptions::default(),
            use_dense_solver: false,
        }
    }
}

/// Result of [`solve_relaxation`].
#[derive(Debug, Clone)]
pub struct RelaxOutcome {
    /// The optimal fractional placement (normalised).
    pub fractional: FractionalPlacement,
    /// LP objective — the minimum **expected** communication cost
    /// achievable by any (randomised) placement, and a lower bound on every
    /// integral placement's cost.
    pub objective: f64,
    /// Solve/separate rounds performed.
    pub rounds: usize,
    /// Total cuts in the final LP.
    pub cuts: usize,
    /// Whether separation found no violated cut (i.e. the Figure-4 optimum
    /// was reached). Equivalent to `stop == StopReason::Converged`.
    pub converged: bool,
    /// Total simplex iterations across rounds.
    pub lp_iterations: u64,
    /// Why the solve stopped (budget accounting for the resilience layer).
    pub stop: StopReason,
}

/// One generated cut: pair `e` with sparse sign pattern over nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Cut {
    pair: usize,
    /// `(node, positive?)` entries; `positive` means `σ_k = +1`.
    signs: Vec<(u32, bool)>,
}

/// Solves the CCA LP relaxation for `problem`.
///
/// `seed` optionally provides an integral placement (e.g. the greedy
/// heuristic's) whose tight cuts are added up front, which typically
/// removes 1–2 rounds of separation.
///
/// # Errors
///
/// [`LpError::Infeasible`] when the capacities cannot host the objects even
/// fractionally; other solver errors propagate.
pub fn solve_relaxation(
    problem: &CcaProblem,
    seed: Option<&Placement>,
    options: &RelaxOptions,
) -> Result<RelaxOutcome, LpError> {
    match options.method {
        RelaxMethod::ClusteredVertex => construct_clustered_vertex(problem),
        RelaxMethod::CombinatorialVertex => construct_optimal_vertex(problem),
        RelaxMethod::CuttingPlane => solve_by_cutting_planes(problem, seed, options),
    }
}

/// Builds the fractional solution rounded by the production LPRR path:
/// objects are agglomerated into clusters no larger than the smallest node
/// ([`crate::cluster::capacity_bounded_clusters`]), and the clusters are
/// packed onto nodes first-fit-decreasing. Clusters that fit get integral
/// rows (deterministic under rounding); clusters stranded by fragmentation
/// are spread fractionally.
///
/// The returned [`RelaxOutcome::objective`] is this solution's expected
/// rounding cost (Theorem 2 applies to *any* fractional solution, not just
/// an optimal one). It upper-bounds the degenerate LP optimum of 0 and is
/// typically a small fraction of the total pair weight.
///
/// # Errors
///
/// [`LpError::Infeasible`] when, in some dimension of the capacity
/// table, the total demand exceeds the total capacity.
pub fn construct_clustered_vertex(problem: &CcaProblem) -> Result<RelaxOutcome, LpError> {
    let t = problem.num_objects();
    let n = problem.num_nodes();
    if !problem.aggregate_capacity_suffices() {
        return Err(LpError::Infeasible);
    }
    let max_bytes = (0..n).map(|k| problem.capacity(k)).min().expect("n > 0");
    let clusters = crate::cluster::capacity_bounded_clusters(problem, max_bytes);

    // First-fit-decreasing over the remaining capacity in every dimension
    // of the capacity table (storage first).
    let dims = problem.dimensions();
    let cluster_demand = |m: &[crate::problem::ObjectId]| -> Vec<f64> {
        let mut demand = vec![0.0f64; dims.len()];
        for &o in m {
            for (x, d) in demand.iter_mut().zip(dims) {
                *x += d.demand(o.index()) as f64;
            }
        }
        demand
    };
    let mut sized: Vec<(Vec<f64>, &Vec<crate::problem::ObjectId>)> =
        clusters.iter().map(|m| (cluster_demand(m), m)).collect();
    sized.sort_unstable_by(|(da, ma), (db, mb)| {
        db[0]
            .partial_cmp(&da[0])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(ma[0].cmp(&mb[0]))
    });

    let mut rem: Vec<Vec<f64>> = (0..n)
        .map(|k| dims.iter().map(|d| d.capacity(k) as f64).collect())
        .collect();
    let fits =
        |rem_k: &[f64], demand: &[f64]| rem_k.iter().zip(demand).all(|(&r, &d)| r + 1e-9 >= d);
    let mut x = vec![0.0f64; t * n];
    for (demand, m) in sized {
        let mut row = vec![0.0f64; n];
        // Best-fit on storage among nodes that fit in every dimension.
        let fit = (0..n).filter(|&k| fits(&rem[k], &demand)).min_by(|&a, &b| {
            rem[a][0]
                .partial_cmp(&rem[b][0])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        if let Some(k) = fit {
            row[k] = 1.0;
            for (dst, d) in rem[k].iter_mut().zip(&demand) {
                *dst -= d;
            }
        } else if demand.iter().all(|&d| d == 0.0) {
            row[0] = 1.0;
        } else {
            // Fragmented: spread fractionally, at each step choosing the
            // node that admits the largest feasible fraction across every
            // dimension (not just storage — a storage-rich node may have
            // no bandwidth left).
            let feasible_take = |rem_k: &[f64], remaining: f64| {
                let mut take = remaining;
                for (dim, &d) in demand.iter().enumerate() {
                    if d > 0.0 {
                        take = take.min((rem_k[dim] / d).max(0.0));
                    }
                }
                take
            };
            let mut assigned = 0.0f64;
            while assigned < 1.0 - 1e-12 {
                let remaining = 1.0 - assigned;
                let k = (0..n)
                    .max_by(|&a, &b| {
                        feasible_take(&rem[a], remaining)
                            .partial_cmp(&feasible_take(&rem[b], remaining))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("n > 0");
                let take = feasible_take(&rem[k], remaining);
                if take <= 1e-15 {
                    return Err(LpError::Numerical(
                        "fractional packing stalled despite sufficient aggregate capacity".into(),
                    ));
                }
                for (dim, &d) in demand.iter().enumerate() {
                    rem[k][dim] -= take * d;
                }
                row[k] += take;
                assigned += take;
            }
        }
        for &o in m {
            x[o.index() * n..(o.index() + 1) * n].copy_from_slice(&row);
        }
    }

    let mut fractional = FractionalPlacement::new(x, t, n);
    fractional.normalise();
    let objective = fractional.expected_cost(problem);
    Ok(RelaxOutcome {
        fractional,
        objective,
        rounds: 0,
        cuts: 0,
        converged: true,
        lp_iterations: 0,
        stop: StopReason::Converged,
    })
}

/// Constructs an **exactly optimal** solution of the Figure-4 LP relaxation
/// without running a simplex, exploiting its degeneracy:
///
/// * The objective `Σ_e r·w·z_e` is non-negative, and `z_e = 0` for every
///   pair is achievable by giving all objects of each correlation
///   component the same fractional row. Such rows exist within the
///   capacity constraints if and only if the aggregate capacity covers the
///   total object size — which is also the LP's feasibility condition. So
///   the LP optimum is **0 for every feasible instance** (an unbounded
///   integrality gap; see DESIGN.md §"Reproduction findings").
/// * Among the many optimal solutions, this routine picks a *useful
///   vertex*: components are packed onto nodes first-fit-decreasing, so
///   most components get a fully integral row (and round deterministically
///   onto one node), and only components that do not fit anywhere are
///   fractionally spread.
///
/// # Errors
///
/// [`LpError::InvalidModel`] when the problem has secondary resources;
/// [`LpError::Infeasible`] when the total object size exceeds the total
/// capacity.
pub fn construct_optimal_vertex(problem: &CcaProblem) -> Result<RelaxOutcome, LpError> {
    if problem.dimensions().len() > 1 {
        // With secondary capacity constraints the shared-row argument no
        // longer guarantees a 0 optimum; use the cutting-plane method for
        // an exact relaxation of such problems.
        return Err(LpError::InvalidModel(
            "the degenerate optimal-vertex construction requires a problem without \
             secondary resources; use RelaxMethod::CuttingPlane"
                .into(),
        ));
    }
    let t = problem.num_objects();
    let n = problem.num_nodes();
    if !problem.aggregate_capacity_suffices() {
        return Err(LpError::Infeasible);
    }

    // Connected components of the pair graph (union-find).
    let mut parent: Vec<usize> = (0..t).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for edge in problem.graph().edges() {
        let (ra, rb) = (
            find(&mut parent, edge.a.index()),
            find(&mut parent, edge.b.index()),
        );
        if ra != rb {
            parent[ra] = rb;
        }
    }
    let mut members: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for i in 0..t {
        let r = find(&mut parent, i);
        members.entry(r).or_default().push(i);
    }
    let mut components: Vec<(u64, Vec<usize>)> = members
        .into_values()
        .map(|m| {
            let size: u64 = m
                .iter()
                .map(|&i| problem.size(crate::problem::ObjectId(i as u32)))
                .sum();
            (size, m)
        })
        .collect();
    // Largest first; ties by smallest member id for determinism.
    components.sort_unstable_by_key(|(size, m)| {
        (
            std::cmp::Reverse(*size),
            m.iter().copied().min().unwrap_or(0),
        )
    });

    // First-fit-decreasing fractional packing.
    let mut rem: Vec<f64> = (0..n).map(|k| problem.capacity(k) as f64).collect();
    let mut x = vec![0.0f64; t * n];
    for (size, m) in components {
        let mut row = vec![0.0f64; n];
        if size == 0 {
            // Weightless component: park it on the emptiest node.
            let k = (0..n)
                .max_by(|&a, &b| {
                    rem[a]
                        .partial_cmp(&rem[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("n > 0");
            row[k] = 1.0;
        } else {
            let mut assigned = 0.0f64;
            // Whole-component fit first (keeps rows integral), then spread.
            if let Some(k) = (0..n).find(|&k| rem[k] >= size as f64) {
                row[k] = 1.0;
                rem[k] -= size as f64;
                assigned = 1.0;
            }
            while assigned < 1.0 - 1e-12 {
                let k = (0..n)
                    .max_by(|&a, &b| {
                        rem[a]
                            .partial_cmp(&rem[b])
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("n > 0");
                let take = ((rem[k] / size as f64).max(0.0)).min(1.0 - assigned);
                debug_assert!(take > 0.0, "aggregate capacity was checked above");
                if take <= 0.0 {
                    return Err(LpError::Numerical(
                        "fractional packing stalled despite sufficient aggregate capacity".into(),
                    ));
                }
                row[k] += take;
                rem[k] -= take * size as f64;
                assigned += take;
            }
        }
        for &i in &m {
            x[i * n..(i + 1) * n].copy_from_slice(&row);
        }
    }

    let mut fractional = FractionalPlacement::new(x, t, n);
    fractional.normalise();
    let objective = fractional.expected_cost(problem);
    debug_assert!(objective.abs() < 1e-9, "vertex must be optimal (0)");
    Ok(RelaxOutcome {
        fractional,
        objective,
        rounds: 0,
        cuts: 0,
        converged: true,
        lp_iterations: 0,
        stop: StopReason::Converged,
    })
}

fn solve_by_cutting_planes(
    problem: &CcaProblem,
    seed: Option<&Placement>,
    options: &RelaxOptions,
) -> Result<RelaxOutcome, LpError> {
    let t = problem.num_objects();
    let n = problem.num_nodes();

    let mut cuts: Vec<Cut> = Vec::new();
    let mut cut_set: HashSet<Cut> = HashSet::new();

    // Seed cuts from an integral placement: σ_k = +1 on i's node, −1 on
    // j's node (exactly the tight pattern at that placement).
    if let Some(p) = seed {
        if p.num_objects() != t {
            return Err(LpError::InvalidModel(format!(
                "seed placement has wrong object count: expected {t}, got {}",
                p.num_objects()
            )));
        }
        if p.num_nodes() != n {
            return Err(LpError::InvalidModel(format!(
                "seed placement has wrong node count: expected {n}, got {}",
                p.num_nodes()
            )));
        }
        for edge in problem.graph().edges() {
            let (ka, kb) = (p.node_of(edge.a), p.node_of(edge.b));
            if ka != kb {
                let mut signs = vec![(ka as u32, true), (kb as u32, false)];
                signs.sort_unstable();
                let cut = Cut {
                    pair: edge.id.index(),
                    signs,
                };
                if cut_set.insert(cut.clone()) {
                    cuts.push(cut);
                }
            }
        }
    }

    let mut rounds = 0;
    let mut lp_iterations = 0u64;
    let mut stop = StopReason::RoundLimit;
    let mut best: Option<(FractionalPlacement, f64)> = None;

    while rounds < options.max_rounds.max(1) {
        // Deadline check between rounds: once a usable solution exists,
        // an expired wall clock degrades to best-so-far instead of
        // erroring.
        if best.is_some()
            && options
                .solver
                .deadline
                .is_some_and(|d| std::time::Instant::now() >= d)
        {
            stop = StopReason::Deadline;
            break;
        }
        rounds += 1;

        // Assemble the LP.
        let mut model = Model::minimize();
        let x_vars = add_x_columns(&mut model, problem);
        let x = |i: usize, k: usize| x_vars[i * n + k];
        // One z column per graph edge, in [`EdgeId`] order — the stable
        // edge-order contract keeps simplex column order (and therefore
        // pivot sequences) identical to the historic pair enumeration.
        let z_vars: Vec<Col> = problem
            .graph()
            .edges()
            .map(|edge| model.add_var(format!("z_{}", edge.id.index()), edge.weight))
            .collect();

        add_placement_rows(&mut model, problem, &x_vars);
        for (c, cut) in cuts.iter().enumerate() {
            let edge = problem.graph().edge(EdgeId(cut.pair as u32));
            let (ia, ib) = (edge.a.index(), edge.b.index());
            // z_e − ½ Σ σ_k x_{i,k} + ½ Σ σ_k x_{j,k} >= 0.
            let mut coeffs: Vec<(Col, f64)> = Vec::with_capacity(1 + 2 * cut.signs.len());
            coeffs.push((z_vars[cut.pair], 1.0));
            for &(k, positive) in &cut.signs {
                let s = if positive { 1.0 } else { -1.0 };
                coeffs.push((x(ia, k as usize), -0.5 * s));
                coeffs.push((x(ib, k as usize), 0.5 * s));
            }
            model.add_constraint_with(format!("cut_{c}"), Relation::Ge, 0.0, coeffs);
        }

        let solved = if options.use_dense_solver {
            model.solve_dense()
        } else {
            model.solve(&options.solver)
        };
        let sol = match solved {
            Ok(sol) => sol,
            // A budget or health failure mid-run degrades to the best
            // solution found by earlier rounds; with no earlier round the
            // error propagates.
            Err(LpError::IterationLimit { iterations }) if best.is_some() => {
                lp_iterations += iterations;
                stop = StopReason::IterationCap;
                break;
            }
            Err(LpError::DeadlineExceeded { iterations, .. }) if best.is_some() => {
                lp_iterations += iterations;
                stop = StopReason::Deadline;
                break;
            }
            Err(LpError::Numerical(_) | LpError::Stalled { .. }) if best.is_some() => {
                stop = StopReason::NumericalAlarm;
                break;
            }
            Err(e) => return Err(e),
        };
        lp_iterations += sol.iterations;

        let raw_x: Vec<f64> = x_vars.iter().map(|&c| sol.value(c)).collect();
        let mut frac = FractionalPlacement::new(raw_x, t, n);
        frac.normalise();

        // Separation: most violated sign pattern per pair.
        let mut violated: Vec<(f64, Cut)> = Vec::new();
        for edge in problem.graph().edges() {
            let e = edge.id.index();
            let z_val = sol.value(z_vars[e]);
            let true_z = frac.split_indicator(edge.a, edge.b);
            if true_z - z_val > CUT_TOLERANCE {
                let (ra, rb) = (frac.row(edge.a), frac.row(edge.b));
                let mut signs: Vec<(u32, bool)> = Vec::new();
                for k in 0..n {
                    let diff = ra[k] - rb[k];
                    if diff > SIGN_EPSILON {
                        signs.push((k as u32, true));
                    } else if diff < -SIGN_EPSILON {
                        signs.push((k as u32, false));
                    }
                }
                if signs.is_empty() {
                    continue;
                }
                let cut = Cut { pair: e, signs };
                if !cut_set.contains(&cut) {
                    violated.push((true_z - z_val, cut));
                }
            }
        }

        if violated.is_empty() {
            stop = StopReason::Converged;
            let objective = frac.expected_cost(problem);
            best = Some((frac, objective));
            break;
        }

        violated
            .sort_unstable_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        for (_, cut) in violated.into_iter().take(MAX_CUTS_PER_ROUND) {
            cut_set.insert(cut.clone());
            cuts.push(cut);
        }

        let objective = frac.expected_cost(problem);
        best = Some((frac, objective));
    }

    let (fractional, objective) = best.expect("at least one round ran");
    Ok(RelaxOutcome {
        fractional,
        objective,
        rounds,
        cuts: cuts.len(),
        converged: stop == StopReason::Converged,
        lp_iterations,
        stop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure4::Figure4Lp;
    use crate::problem::{CcaProblem, ObjectId};
    use cca_rand::rngs::StdRng;
    use cca_rand::{Rng, SeedableRng};

    fn cp() -> RelaxOptions {
        RelaxOptions {
            method: RelaxMethod::CuttingPlane,
            ..RelaxOptions::default()
        }
    }

    fn tiny_problem() -> CcaProblem {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 5);
        let c = b.add_object("b", 5);
        b.add_pair(a, c, 1.0, 10.0).unwrap();
        b.uniform_capacities(2, 10).build().unwrap()
    }

    #[test]
    fn colocatable_pair_costs_zero() {
        let p = tiny_problem();
        let out = solve_relaxation(&p, None, &cp()).unwrap();
        assert!(out.converged);
        assert!(out.objective.abs() < 1e-6, "objective {}", out.objective);
        assert!(out.fractional.is_stochastic(1e-6));
    }

    /// Tight-capacity pair: the relaxation exploits identical fractional
    /// rows (x = ½,½ for both objects) so its optimum is 0 — the capacity
    /// integrality gap discussed in figure4's tests. The cutting-plane
    /// formulation must find the same value as the literal Figure-4 LP.
    #[test]
    fn tight_capacity_pair_relaxes_to_zero() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 10);
        let c = b.add_object("b", 10);
        b.add_pair(a, c, 0.5, 6.0).unwrap();
        let p = b.uniform_capacities(2, 10).build().unwrap();
        let out = solve_relaxation(&p, None, &cp()).unwrap();
        assert!(out.converged);
        assert!(out.objective.abs() < 1e-6, "objective {}", out.objective);
        // Expected loads stay within capacity (Theorem 3's premise).
        for (k, load) in out.fractional.expected_loads(&p).iter().enumerate() {
            assert!(*load <= p.capacity(k) as f64 + 1e-6);
        }
    }

    /// The cutting-plane solver reaches the degenerate optimum (0) on an
    /// instance whose integral optimum is 10 — mirroring figure4's
    /// `relaxation_is_degenerate_with_unbounded_gap`.
    #[test]
    fn degenerate_optimum_matches_figure4() {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..3).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 1.0, 5.0).unwrap();
        b.add_pair(o[1], o[2], 1.0, 3.0).unwrap();
        b.add_pair(o[0], o[2], 1.0, 2.0).unwrap();
        let p = b.uniform_capacities(3, 10).build().unwrap();
        let out = solve_relaxation(&p, None, &cp()).unwrap();
        assert!(out.converged);
        assert!(out.objective.abs() < 1e-6, "objective {}", out.objective);
    }

    #[test]
    fn infeasible_is_reported() {
        let mut b = CcaProblem::builder();
        let a = b.add_object("a", 10);
        let c = b.add_object("b", 10);
        b.add_pair(a, c, 1.0, 1.0).unwrap();
        let p = b.uniform_capacities(2, 5).build().unwrap();
        assert!(matches!(
            solve_relaxation(&p, None, &cp()),
            Err(LpError::Infeasible)
        ));
    }

    #[test]
    fn iteration_budget_degrades_to_best_so_far() {
        // The 3-clique needs three solve/separate rounds of 7, 10 and 13
        // simplex pivots. The per-solve cap stops a solve only when it
        // needs a pivot beyond the cap, so a cap of 8 lets round 1 finish
        // and stops round 2: the solve must end with round 1's solution
        // instead of erroring.
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..3).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 1.0, 5.0).unwrap();
        b.add_pair(o[1], o[2], 1.0, 3.0).unwrap();
        b.add_pair(o[0], o[2], 1.0, 2.0).unwrap();
        let p = b.uniform_capacities(3, 10).build().unwrap();
        let full = solve_relaxation(&p, None, &cp()).unwrap();
        assert_eq!(full.stop, StopReason::Converged);
        assert!(full.rounds > 1, "need a multi-round instance");
        assert!(full.lp_iterations > 1);
        let mut capped = cp();
        capped.solver.max_iterations = 8;
        let out = solve_relaxation(&p, None, &capped).unwrap();
        assert_eq!(out.stop, StopReason::IterationCap);
        assert!(!out.converged);
        assert!(out.rounds > 1, "round 1 must fit the cap");
        assert!(out.lp_iterations <= full.lp_iterations);
        assert!(out.fractional.is_stochastic(1e-6));
    }

    #[test]
    fn expired_deadline_with_no_progress_propagates() {
        let p = tiny_problem();
        let mut o = cp();
        o.solver.deadline = Some(std::time::Instant::now());
        assert!(matches!(
            solve_relaxation(&p, None, &o),
            Err(LpError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn no_pairs_is_trivially_zero() {
        let mut b = CcaProblem::builder();
        b.add_object("a", 5);
        b.add_object("b", 7);
        let p = b.uniform_capacities(2, 12).build().unwrap();
        let out = solve_relaxation(&p, None, &cp()).unwrap();
        assert!(out.converged);
        assert_eq!(out.objective, 0.0);
    }

    /// The cutting-plane optimum must equal the literal Figure-4 optimum on
    /// randomly generated small instances.
    #[test]
    fn agrees_with_figure4_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..20 {
            let t = 3 + rng.random_range(0..5);
            let n = 2 + rng.random_range(0..3);
            let mut b = CcaProblem::builder();
            let objs: Vec<_> = (0..t)
                .map(|i| b.add_object(format!("o{i}"), 1 + rng.random_range(0..6)))
                .collect();
            for i in 0..t {
                for j in i + 1..t {
                    if rng.random::<f64>() < 0.5 {
                        b.add_pair(
                            objs[i],
                            objs[j],
                            rng.random::<f64>(),
                            1.0 + rng.random::<f64>() * 5.0,
                        )
                        .unwrap();
                    }
                }
            }
            let total: u64 = objs.iter().map(|&o| 1 + o.0 as u64).sum::<u64>().max(8);
            let cap = (total / n as u64) + 4;
            let p = b.uniform_capacities(n, cap).build().unwrap();

            let fig4 = Figure4Lp::build(&p).solve(&Default::default());
            let cp = solve_relaxation(&p, None, &cp());
            match (fig4, cp) {
                (Ok((_, obj4)), Ok(out)) => {
                    assert!(out.converged, "trial {trial} did not converge");
                    assert!(
                        (obj4 - out.objective).abs() < 1e-5 * (1.0 + obj4.abs()),
                        "trial {trial}: figure4 {obj4} vs cutting-plane {}",
                        out.objective
                    );
                }
                (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
                (f, c) => panic!("trial {trial}: figure4 {f:?} vs cutting-plane {c:?}"),
            }
        }
    }

    /// Seeding with a placement must not change the optimum.
    #[test]
    fn seeding_preserves_optimum() {
        let mut b = CcaProblem::builder();
        let objs: Vec<_> = (0..5).map(|i| b.add_object(format!("o{i}"), 2)).collect();
        b.add_pair(objs[0], objs[1], 1.0, 4.0).unwrap();
        b.add_pair(objs[1], objs[2], 1.0, 3.0).unwrap();
        b.add_pair(objs[2], objs[3], 1.0, 2.0).unwrap();
        b.add_pair(objs[3], objs[4], 1.0, 1.0).unwrap();
        let p = b.uniform_capacities(2, 6).build().unwrap();
        let plain = solve_relaxation(&p, None, &cp()).unwrap();
        let seed = Placement::new(vec![0, 0, 0, 1, 1], 2);
        let seeded = solve_relaxation(&p, Some(&seed), &cp()).unwrap();
        assert!(plain.converged && seeded.converged);
        assert!(
            (plain.objective - seeded.objective).abs() < 1e-6,
            "plain {} vs seeded {}",
            plain.objective,
            seeded.objective
        );
    }

    /// The LP objective is a lower bound on any integral placement's cost.
    #[test]
    fn objective_lower_bounds_integral_cost() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut b = CcaProblem::builder();
        let objs: Vec<_> = (0..6).map(|i| b.add_object(format!("o{i}"), 3)).collect();
        for i in 0..6 {
            for j in i + 1..6 {
                b.add_pair(objs[i], objs[j], rng.random::<f64>(), 2.0)
                    .unwrap();
            }
        }
        let p = b.uniform_capacities(3, 9).build().unwrap();
        let out = solve_relaxation(&p, None, &cp()).unwrap();
        // Check against 50 random feasible integral placements.
        for _ in 0..50 {
            let assignment: Vec<u32> = (0..6).map(|_| rng.random_range(0..3)).collect();
            let pl = Placement::new(assignment, 3);
            if pl.within_capacity(&p, 1.0) {
                assert!(
                    pl.communication_cost(&p) >= out.objective - 1e-6,
                    "integral {} below LP bound {}",
                    pl.communication_cost(&p),
                    out.objective
                );
            }
        }
        let _ = ObjectId(0);
    }

    #[test]
    fn dense_solver_path_works() {
        let p = tiny_problem();
        let out = solve_relaxation(
            &p,
            None,
            &RelaxOptions {
                use_dense_solver: true,
                method: RelaxMethod::CuttingPlane,
                ..RelaxOptions::default()
            },
        )
        .unwrap();
        assert!(out.converged);
        assert!(out.objective.abs() < 1e-6);
    }

    /// The combinatorial vertex construction attains the same optimum as
    /// the cutting-plane simplex (always 0 when feasible) and packs whole
    /// components integrally when they fit.
    #[test]
    fn vertex_construction_matches_cutting_plane() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..15 {
            let t = 2 + rng.random_range(0..6);
            let n = 2 + rng.random_range(0..3);
            let mut b = CcaProblem::builder();
            let objs: Vec<_> = (0..t)
                .map(|i| b.add_object(format!("o{i}"), 1 + rng.random_range(0..5)))
                .collect();
            for i in 0..t {
                for j in i + 1..t {
                    if rng.random::<f64>() < 0.4 {
                        b.add_pair(objs[i], objs[j], rng.random::<f64>(), 2.0)
                            .unwrap();
                    }
                }
            }
            let total: u64 = objs.iter().map(|&o| 1 + o.0 as u64).sum::<u64>().max(6);
            let cap = total / n as u64 + 3;
            let p = b.uniform_capacities(n, cap).build().unwrap();
            let vx = construct_optimal_vertex(&p);
            let cp_out = solve_relaxation(&p, None, &cp());
            match (vx, cp_out) {
                (Ok(v), Ok(c)) => {
                    assert!(c.converged, "trial {trial}");
                    assert!(
                        (v.objective - c.objective).abs() < 1e-6,
                        "trial {trial}: vertex {} vs cutting-plane {}",
                        v.objective,
                        c.objective
                    );
                    assert!(v.fractional.is_stochastic(1e-9));
                    // Expected loads respect capacity.
                    for (k, load) in v.fractional.expected_loads(&p).iter().enumerate() {
                        assert!(
                            *load <= p.capacity(k) as f64 + 1e-6,
                            "trial {trial} node {k}"
                        );
                    }
                }
                (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
                (v, c) => panic!("trial {trial}: vertex {v:?} vs cutting-plane {c:?}"),
            }
        }
    }

    #[test]
    fn vertex_packs_fitting_components_integrally() {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..4).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 0.9, 5.0).unwrap();
        b.add_pair(o[2], o[3], 0.9, 5.0).unwrap();
        let p = b.uniform_capacities(2, 20).build().unwrap();
        let out = construct_optimal_vertex(&p).unwrap();
        // Both pairs fit on a node each: rows must be integral and equal
        // within pairs.
        for pair in [(o[0], o[1]), (o[2], o[3])] {
            assert!(out.fractional.split_indicator(pair.0, pair.1) < 1e-12);
            for k in 0..2 {
                let v = out.fractional.fraction(pair.0, k);
                assert!(v == 0.0 || v == 1.0, "expected integral row, got {v}");
            }
        }
    }

    #[test]
    fn vertex_spreads_oversized_component() {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..3).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 1.0, 5.0).unwrap();
        b.add_pair(o[1], o[2], 1.0, 5.0).unwrap();
        // One component of size 30; nodes hold 20 each.
        let p = b.uniform_capacities(2, 20).build().unwrap();
        let out = construct_optimal_vertex(&p).unwrap();
        assert!(out.objective.abs() < 1e-9);
        // The component's shared row must be genuinely fractional.
        let row = out.fractional.row(o[0]);
        assert!(row.iter().all(|&v| v < 1.0));
        assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for (k, load) in out.fractional.expected_loads(&p).iter().enumerate() {
            assert!(*load <= p.capacity(k) as f64 + 1e-6, "node {k} load {load}");
        }
    }

    #[test]
    fn vertex_infeasible_when_aggregate_capacity_short() {
        let mut b = CcaProblem::builder();
        b.add_object("a", 10);
        b.add_object("b", 10);
        let p = b.uniform_capacities(2, 5).build().unwrap();
        assert!(matches!(
            construct_optimal_vertex(&p),
            Err(LpError::Infeasible)
        ));
    }
}
