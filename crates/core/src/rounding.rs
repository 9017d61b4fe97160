//! Randomized rounding — the paper's Algorithm 2.1.
//!
//! Repeatedly draw a node `k` and a threshold `r ∈ [0,1]`, and place every
//! not-yet-placed object `i` with `x_{i,k} >= r` at node `k`. This dependent
//! rounding (in the style of Kleinberg–Tardos) guarantees:
//!
//! * **Lemma 1** — object `i` lands on node `k` with probability exactly
//!   `x_{i,k}`;
//! * **Lemma 2** — `Prob[i, j split] <= z_{i,j}`;
//! * **Theorem 2** — the expected cost of the rounded placement equals the
//!   LP optimum;
//! * **Theorem 3** — the expected per-node load respects the capacities.
//!
//! All four are re-verified statistically in this module's tests and the
//! crate's property tests.

use crate::error::CcaError;
use crate::fractional::FractionalPlacement;
use crate::graph::PlacementBatch;
use crate::placement::Placement;
use crate::problem::CcaProblem;
use cca_par::{par_map_indexed, DeadlineGate};
use cca_rand::{Rng, StreamFamily};

/// Safety cap on rounding steps; with valid stochastic rows the loop
/// terminates long before this (each step places an object with probability
/// at least `1/|N|`).
const MAX_STEPS_PER_OBJECT: usize = 100_000;

/// Performs one run of Algorithm 2.1 on `fractional`.
///
/// # Errors
///
/// [`CcaError::NotStochastic`] if `fractional` is not (approximately)
/// row-stochastic — call [`FractionalPlacement::normalise`] first — and
/// [`CcaError::RoundingDiverged`] if the step cap is exhausted (indicating
/// invalid input despite the check).
pub fn round_once<R: Rng + ?Sized>(
    fractional: &FractionalPlacement,
    rng: &mut R,
) -> Result<Placement, CcaError> {
    if !fractional.is_stochastic(1e-6) {
        return Err(CcaError::NotStochastic);
    }
    round_unchecked(fractional, rng)
}

/// [`round_once`] minus the row-stochastic check, for the repetition loops
/// that validate the matrix once up front instead of once per repetition.
fn round_unchecked<R: Rng + ?Sized>(
    fractional: &FractionalPlacement,
    rng: &mut R,
) -> Result<Placement, CcaError> {
    let t = fractional.num_objects();
    let n = fractional.num_nodes();
    let mut assignment = vec![u32::MAX; t];
    let mut unplaced: Vec<u32> = (0..t as u32).collect();
    let mut steps = 0usize;
    let max_steps = MAX_STEPS_PER_OBJECT.saturating_mul(t.max(1));
    while !unplaced.is_empty() {
        if steps >= max_steps {
            return Err(CcaError::RoundingDiverged { steps });
        }
        steps += 1;
        let k = rng.random_range(0..n);
        let r: f64 = rng.random();
        unplaced.retain(|&i| {
            if r <= fractional.fraction(crate::problem::ObjectId(i), k) {
                assignment[i as usize] = k as u32;
                false
            } else {
                true
            }
        });
    }
    Ok(Placement::new(assignment, n))
}

/// Outcome of [`round_best_of`].
#[derive(Debug, Clone)]
pub struct RoundingOutcome {
    /// The selected placement.
    pub placement: Placement,
    /// Its communication cost on the problem.
    pub cost: f64,
    /// Whether it satisfies the capacities (with the slack used).
    pub within_capacity: bool,
    /// Number of rounding repetitions actually performed (may be fewer
    /// than requested when a deadline cuts the loop short).
    pub repetitions: usize,
    /// Worst load-to-raw-capacity ratio across storage and every
    /// secondary resource (1.0 = exactly full; `INFINITY` if a
    /// zero-capacity node carries load). Lets callers rank candidates
    /// even when none is feasible.
    pub max_load_ratio: f64,
}

/// Worst per-node load divided by *raw* (un-slacked) capacity, across the
/// storage dimension and every secondary resource. A node with zero
/// capacity and non-zero load yields `INFINITY`; with zero load it
/// contributes nothing.
pub(crate) fn max_load_ratio(problem: &CcaProblem, placement: &Placement) -> f64 {
    fn worst(loads: &[u64], capacity: impl Fn(usize) -> u64) -> f64 {
        loads
            .iter()
            .enumerate()
            .map(|(k, &load)| {
                let cap = capacity(k);
                if load == 0 {
                    0.0
                } else if cap == 0 {
                    f64::INFINITY
                } else {
                    load as f64 / cap as f64
                }
            })
            .fold(0.0, f64::max)
    }
    let mut ratio = worst(&placement.loads(problem), |k| problem.capacity(k));
    for (r, resource) in problem.resources().iter().enumerate() {
        ratio = ratio.max(worst(&placement.resource_loads(problem, r), |k| {
            resource.capacity(k)
        }));
    }
    ratio
}

/// Runs Algorithm 2.1 `repetitions` times and keeps the best placement, as
/// the paper suggests: "To achieve a high confidence … we can repeat the
/// randomized rounding several times and pick the best solution."
///
/// Capacity-respecting placements (within `capacity_slack`, e.g. `1.0` for
/// strict) are preferred over violating ones; among feasible candidates
/// lower communication cost wins, and among infeasible ones the *least
/// overloaded* (smallest [`RoundingOutcome::max_load_ratio`], ties broken
/// by cost) wins, so even an all-infeasible run hands back the most
/// repairable placement instead of an arbitrary one.
///
/// Repetition `i` always draws from substream `i` of `seed` (via
/// [`StreamFamily`]) and candidates are compared in repetition order, so
/// the selected placement is **byte-identical for every `threads` value**
/// — `threads = 1` runs inline with no pool at all.
///
/// # Errors
///
/// [`CcaError::NoRepetitions`] if `repetitions == 0`,
/// [`CcaError::DimensionMismatch`] if the placement/problem dimensions
/// disagree, plus anything [`round_once`] reports.
pub fn round_best_of(
    fractional: &FractionalPlacement,
    problem: &CcaProblem,
    repetitions: usize,
    capacity_slack: f64,
    seed: u64,
) -> Result<RoundingOutcome, CcaError> {
    round_best_of_within(
        fractional,
        problem,
        repetitions,
        capacity_slack,
        None,
        seed,
        1,
    )
}

/// Deadline-aware, parallel [`round_best_of`]: repetitions run across up to
/// `threads` workers, each drawing from its own per-repetition substream of
/// `seed`. A shared [`DeadlineGate`] is checked between *individual*
/// repetitions on every worker (repetition 0 is exempt, so at least one
/// candidate always exists), and [`RoundingOutcome::repetitions`] records
/// how many runs actually happened. `deadline = None` behaves exactly like
/// [`round_best_of`] plus the fan-out.
///
/// Determinism: when the deadline does not fire, the result is
/// byte-identical for every `threads` value, because repetition `i`'s
/// randomness depends only on `(seed, i)` and ties are broken by
/// repetition index — never by completion order.
pub fn round_best_of_within(
    fractional: &FractionalPlacement,
    problem: &CcaProblem,
    repetitions: usize,
    capacity_slack: f64,
    deadline: Option<std::time::Instant>,
    seed: u64,
    threads: usize,
) -> Result<RoundingOutcome, CcaError> {
    if repetitions == 0 {
        return Err(CcaError::NoRepetitions);
    }
    if fractional.num_objects() != problem.num_objects() {
        return Err(CcaError::DimensionMismatch {
            what: "object count",
            expected: problem.num_objects(),
            actual: fractional.num_objects(),
        });
    }
    if fractional.num_nodes() != problem.num_nodes() {
        return Err(CcaError::DimensionMismatch {
            what: "node count",
            expected: problem.num_nodes(),
            actual: fractional.num_nodes(),
        });
    }
    if !fractional.is_stochastic(1e-6) {
        return Err(CcaError::NotStochastic);
    }
    let family = StreamFamily::new(seed);
    let gate = DeadlineGate::new(deadline);
    let candidates: Vec<Option<Result<Placement, CcaError>>> =
        par_map_indexed(threads, repetitions, |i| {
            // The deadline fires between individual repetitions on every
            // worker; repetition 0 is exempt so a candidate always exists.
            if i > 0 && gate.expired() {
                return None;
            }
            let mut rng = family.stream(i as u64);
            Some(round_unchecked(fractional, &mut rng))
        });
    // Collect survivors strictly in repetition-index order: with a fixed
    // seed the selection below is a pure function of the candidate list,
    // so thread scheduling cannot influence which placement wins.
    let mut produced: Vec<Placement> = Vec::with_capacity(repetitions);
    for candidate in candidates.into_iter().flatten() {
        produced.push(candidate?);
    }
    // The gate also guards scoring: a k-wide batch cost walk must not
    // *start* after the deadline trips (the same sticky-atomic contract
    // that gates repetition generation). Only the exempt first candidate
    // is kept and scored late.
    if produced.len() > 1 && gate.expired() {
        produced.truncate(1);
    }
    // One CSR edge walk scores every surviving candidate; column i is
    // bit-identical to `produced[i].communication_cost(problem)` (with
    // sharding enabled the walk runs shard-parallel on the same workers,
    // with the single-shard case preserving those exact bits).
    let costs = problem.eval_cost_batch(&PlacementBatch::from_placements(&produced), threads);
    let performed = produced.len();
    let mut best: Option<(bool, f64, f64, usize)> = None;
    for (idx, p) in produced.iter().enumerate() {
        let cost = costs[idx];
        let feasible = p.within_all_capacities(problem, capacity_slack);
        let ratio = max_load_ratio(problem, p);
        let better = match &best {
            None => true,
            Some((bf, bc, br, _)) => match (feasible, *bf) {
                (true, false) => true,
                (false, true) => false,
                // Both feasible: cheapest wins.
                (true, true) => cost < *bc,
                // Both infeasible: least overloaded wins, ties by cost.
                (false, false) => ratio < *br || (ratio == *br && cost < *bc),
            },
        };
        if better {
            best = Some((feasible, cost, ratio, idx));
        }
    }
    let (within_capacity, cost, max_load_ratio, best_idx) = best.expect("repetition 0 runs");
    let placement = produced.swap_remove(best_idx);
    Ok(RoundingOutcome {
        placement,
        cost,
        within_capacity,
        repetitions: performed,
        max_load_ratio,
    })
}

/// Draws `repetitions` independent Algorithm 2.1 samples, one per
/// substream of `seed`, across up to `threads` workers. Sample `i` is a
/// pure function of `(fractional, seed, i)`, so the returned vector is
/// identical for every `threads` value — this is the statistical raw
/// material for the Lemma 1 / Lemma 2 test batteries, which need the *full*
/// sample rather than the best-of selection.
///
/// # Errors
///
/// [`CcaError::NotStochastic`] / [`CcaError::RoundingDiverged`] as for
/// [`round_once`].
pub fn round_samples(
    fractional: &FractionalPlacement,
    repetitions: usize,
    seed: u64,
    threads: usize,
) -> Result<Vec<Placement>, CcaError> {
    if !fractional.is_stochastic(1e-6) {
        return Err(CcaError::NotStochastic);
    }
    let family = StreamFamily::new(seed);
    par_map_indexed(threads, repetitions, |i| {
        let mut rng = family.stream(i as u64);
        round_unchecked(fractional, &mut rng)
    })
    .into_iter()
    .collect()
}

/// [`round_samples`] plus a cost per sample from **one** batched CSR walk
/// (`crate::CorrelationGraph::cost_batch`) instead of a full edge scan per
/// sample. `costs[i]` is bit-identical to
/// `samples[i].communication_cost(problem)`, and the samples are the same
/// thread-invariant vector [`round_samples`] returns.
///
/// # Errors
///
/// [`CcaError::DimensionMismatch`] if `fractional` and `problem` disagree
/// on dimensions, plus anything [`round_samples`] reports.
pub fn round_samples_scored(
    fractional: &FractionalPlacement,
    problem: &CcaProblem,
    repetitions: usize,
    seed: u64,
    threads: usize,
) -> Result<(Vec<Placement>, Vec<f64>), CcaError> {
    if fractional.num_objects() != problem.num_objects() {
        return Err(CcaError::DimensionMismatch {
            what: "object count",
            expected: problem.num_objects(),
            actual: fractional.num_objects(),
        });
    }
    if fractional.num_nodes() != problem.num_nodes() {
        return Err(CcaError::DimensionMismatch {
            what: "node count",
            expected: problem.num_nodes(),
            actual: fractional.num_nodes(),
        });
    }
    let samples = round_samples(fractional, repetitions, seed, threads)?;
    if samples.is_empty() {
        return Ok((samples, Vec::new()));
    }
    let costs = problem.eval_cost_batch(&PlacementBatch::from_placements(&samples), threads);
    Ok((samples, costs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{CcaProblem, ObjectId};
    use cca_rand::rngs::StdRng;
    use cca_rand::SeedableRng;

    fn frac(x: Vec<f64>, t: usize, n: usize) -> FractionalPlacement {
        FractionalPlacement::new(x, t, n)
    }

    #[test]
    fn integral_input_rounds_to_itself() {
        let f = FractionalPlacement::from_integral(&[1, 0, 2], 3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            let p = round_once(&f, &mut rng).unwrap();
            assert_eq!(p.as_slice(), &[1, 0, 2]);
        }
    }

    /// Lemma 1: marginal placement probabilities equal the fractions.
    #[test]
    fn lemma1_marginals_match_fractions() {
        let f = frac(vec![0.7, 0.3, 0.2, 0.8], 2, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 20_000;
        let mut count = [[0usize; 2]; 2];
        for _ in 0..trials {
            let p = round_once(&f, &mut rng).unwrap();
            count[0][p.node_of(ObjectId(0))] += 1;
            count[1][p.node_of(ObjectId(1))] += 1;
        }
        for i in 0..2 {
            for k in 0..2 {
                let emp = count[i][k] as f64 / trials as f64;
                let want = f.fraction(ObjectId(i as u32), k);
                assert!(
                    (emp - want).abs() < 0.02,
                    "object {i} node {k}: empirical {emp}, expected {want}"
                );
            }
        }
    }

    /// Lemma 2: split probability bounded by the split indicator, and
    /// identical rows are never split.
    #[test]
    fn lemma2_split_probability_bounded() {
        // Identical fractional rows -> never split (the crux of dependent
        // rounding; independent per-object rounding would split them half
        // the time).
        let same = frac(vec![0.5, 0.5, 0.5, 0.5], 2, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let p = round_once(&same, &mut rng).unwrap();
            assert_eq!(
                p.node_of(ObjectId(0)),
                p.node_of(ObjectId(1)),
                "identical rows were split"
            );
        }

        // Partially overlapping rows: empirical split rate <= z + noise.
        let f = frac(vec![0.7, 0.3, 0.3, 0.7], 2, 2);
        let z = f.split_indicator(ObjectId(0), ObjectId(1)); // 0.4
        let trials = 20_000;
        let mut split = 0;
        for _ in 0..trials {
            let p = round_once(&f, &mut rng).unwrap();
            if p.node_of(ObjectId(0)) != p.node_of(ObjectId(1)) {
                split += 1;
            }
        }
        let emp = split as f64 / trials as f64;
        assert!(emp <= z + 0.02, "split rate {emp} exceeds z = {z}");
    }

    /// Theorem 2: expected rounded cost ≈ fractional expected cost.
    #[test]
    fn theorem2_expected_cost_matches() {
        let mut b = CcaProblem::builder();
        let o0 = b.add_object("a", 1);
        let o1 = b.add_object("b", 1);
        let o2 = b.add_object("c", 1);
        b.add_pair(o0, o1, 1.0, 10.0).unwrap();
        b.add_pair(o1, o2, 0.5, 4.0).unwrap();
        let p = b.uniform_capacities(2, 3).build().unwrap();
        let f = frac(vec![0.6, 0.4, 0.6, 0.4, 0.1, 0.9], 3, 2);
        let expected = f.expected_cost(&p);
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 30_000;
        let total: f64 = (0..trials)
            .map(|_| round_once(&f, &mut rng).unwrap().communication_cost(&p))
            .sum();
        let emp = total / trials as f64;
        // Lemma 2 gives <= z per pair; for two-node problems the bound is
        // tight, so the empirical mean should be close to (and not above)
        // the expectation.
        assert!(
            (emp - expected).abs() < 0.15,
            "empirical {emp} vs expected {expected}"
        );
    }

    /// Theorem 3: expected loads within capacity.
    #[test]
    fn theorem3_expected_loads() {
        let mut b = CcaProblem::builder();
        let o0 = b.add_object("a", 10);
        let o1 = b.add_object("b", 10);
        b.add_pair(o0, o1, 1.0, 1.0).unwrap();
        let p = b.uniform_capacities(2, 12).build().unwrap();
        let f = frac(vec![0.6, 0.4, 0.4, 0.6], 2, 2);
        // Expected loads are 10*(0.6+0.4) = 10 <= 12 on each node.
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 20_000;
        let mut sums = [0.0f64; 2];
        for _ in 0..trials {
            let pl = round_once(&f, &mut rng).unwrap();
            let loads = pl.loads(&p);
            sums[0] += loads[0] as f64;
            sums[1] += loads[1] as f64;
        }
        for k in 0..2 {
            let mean = sums[k] / trials as f64;
            assert!(
                mean <= p.capacity(k) as f64 + 0.3,
                "node {k} expected load {mean} exceeds capacity"
            );
        }
    }

    #[test]
    fn identical_rows_always_colocate() {
        // A subtle consequence of dependent rounding: identical fractional
        // rows are NEVER split, even when co-location violates capacity.
        // (This is why the solver pairs rounding with a repair pass.)
        let f = frac(vec![0.5, 0.5, 0.5, 0.5], 2, 2);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..200 {
            let p = round_once(&f, &mut rng).unwrap();
            assert_eq!(p.node_of(ObjectId(0)), p.node_of(ObjectId(1)));
        }
    }

    #[test]
    fn best_of_prefers_feasible_then_cheap() {
        let mut b = CcaProblem::builder();
        let o0 = b.add_object("a", 10);
        let o1 = b.add_object("b", 10);
        b.add_pair(o0, o1, 1.0, 5.0).unwrap();
        let p = b.uniform_capacities(2, 10).build().unwrap();
        // Asymmetric rows: rounding sometimes co-locates (infeasible, load
        // 20 > 10) and sometimes splits (feasible, cost 5). Best-of must
        // select the feasible split even though the infeasible outcome has
        // cost 0.
        let f = frac(vec![0.9, 0.1, 0.1, 0.9], 2, 2);
        let out = round_best_of(&f, &p, 64, 1.0, 6).unwrap();
        // Split probability is z = 0.8 per draw, so 64 tries find one.
        assert!(out.within_capacity);
        assert!((out.cost - 5.0).abs() < 1e-12);
        assert_eq!(out.repetitions, 64);
    }

    #[test]
    fn all_infeasible_selects_least_overloaded() {
        let mut b = CcaProblem::builder();
        let o0 = b.add_object("a", 10);
        let o1 = b.add_object("b", 10);
        b.add_pair(o0, o1, 1.0, 5.0).unwrap();
        let p = b.uniform_capacities(2, 10).build().unwrap();
        // With zero slack no outcome is "feasible": co-location loads one
        // node to 20/10 (ratio 2.0, cost 0) while a split loads both to
        // 10/10 (ratio 1.0, cost 5). The least-overloaded rule must pick
        // the split despite its higher cost.
        let f = frac(vec![0.9, 0.1, 0.1, 0.9], 2, 2);
        let out = round_best_of(&f, &p, 64, 0.0, 6).unwrap();
        assert!(!out.within_capacity);
        assert!((out.max_load_ratio - 1.0).abs() < 1e-12);
        assert!((out.cost - 5.0).abs() < 1e-12);
        assert_ne!(
            out.placement.node_of(ObjectId(0)),
            out.placement.node_of(ObjectId(1))
        );
    }

    #[test]
    fn expired_deadline_still_yields_one_candidate() {
        let mut b = CcaProblem::builder();
        let o0 = b.add_object("a", 1);
        let o1 = b.add_object("b", 1);
        b.add_pair(o0, o1, 1.0, 1.0).unwrap();
        let p = b.uniform_capacities(2, 2).build().unwrap();
        let f = frac(vec![0.5, 0.5, 0.5, 0.5], 2, 2);
        for threads in [1, 4] {
            let out = round_best_of_within(
                &f,
                &p,
                64,
                1.0,
                Some(std::time::Instant::now()),
                10,
                threads,
            )
            .unwrap();
            // The gate fires between individual repetitions on every
            // worker; only the exempt repetition 0 runs.
            assert_eq!(out.repetitions, 1, "threads = {threads}");
        }
    }

    #[test]
    fn best_of_is_thread_count_invariant() {
        let mut b = CcaProblem::builder();
        let o0 = b.add_object("a", 10);
        let o1 = b.add_object("b", 10);
        b.add_pair(o0, o1, 1.0, 5.0).unwrap();
        let p = b.uniform_capacities(2, 10).build().unwrap();
        let f = frac(vec![0.9, 0.1, 0.1, 0.9], 2, 2);
        let serial = round_best_of_within(&f, &p, 48, 1.0, None, 0x5eed, 1).unwrap();
        for threads in [2, 8] {
            let par = round_best_of_within(&f, &p, 48, 1.0, None, 0x5eed, threads).unwrap();
            assert_eq!(
                par.placement.as_slice(),
                serial.placement.as_slice(),
                "threads = {threads}"
            );
            assert_eq!(par.cost.to_bits(), serial.cost.to_bits());
            assert_eq!(
                par.max_load_ratio.to_bits(),
                serial.max_load_ratio.to_bits()
            );
            assert_eq!(par.repetitions, serial.repetitions);
            assert_eq!(par.within_capacity, serial.within_capacity);
        }
    }

    #[test]
    fn samples_are_thread_count_invariant() {
        let f = frac(vec![0.7, 0.3, 0.3, 0.7], 2, 2);
        let serial = round_samples(&f, 100, 42, 1).unwrap();
        for threads in [2, 8] {
            let par = round_samples(&f, 100, 42, threads).unwrap();
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn scored_samples_match_per_sample_costs() {
        let mut b = CcaProblem::builder();
        let o0 = b.add_object("a", 10);
        let o1 = b.add_object("b", 10);
        b.add_pair(o0, o1, 1.0, 5.0).unwrap();
        let p = b.uniform_capacities(2, 20).build().unwrap();
        let f = frac(vec![0.7, 0.3, 0.3, 0.7], 2, 2);
        for threads in [1, 4] {
            let (samples, costs) = round_samples_scored(&f, &p, 40, 42, threads).unwrap();
            assert_eq!(samples, round_samples(&f, 40, 42, threads).unwrap());
            assert_eq!(costs.len(), samples.len());
            for (s, c) in samples.iter().zip(&costs) {
                assert_eq!(c.to_bits(), s.communication_cost(&p).to_bits());
            }
        }
    }

    #[test]
    fn load_ratio_handles_zero_capacity_nodes() {
        let mut b = CcaProblem::builder();
        b.add_object("a", 5);
        b.add_object("b", 5);
        let p = b.uniform_capacities(2, 10).build().unwrap();
        let dead = p.with_capacities(vec![10, 0]).unwrap();
        let on_live = Placement::new(vec![0, 0], 2);
        let on_dead = Placement::new(vec![0, 1], 2);
        assert!((max_load_ratio(&dead, &on_live) - 1.0).abs() < 1e-12);
        assert!(max_load_ratio(&dead, &on_dead).is_infinite());
    }

    #[test]
    fn non_stochastic_input_is_rejected() {
        let f = frac(vec![0.9, 0.9, 0.1, 0.1], 2, 2);
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(round_once(&f, &mut rng), Err(CcaError::NotStochastic));
    }

    #[test]
    fn zero_repetitions_is_an_error() {
        let mut b = CcaProblem::builder();
        b.add_object("a", 1);
        let p = b.uniform_capacities(1, 1).build().unwrap();
        let f = frac(vec![1.0], 1, 1);
        assert!(matches!(
            round_best_of(&f, &p, 0, 1.0, 8),
            Err(CcaError::NoRepetitions)
        ));
    }

    #[test]
    fn dimension_mismatch_is_an_error() {
        let mut b = CcaProblem::builder();
        b.add_object("a", 1);
        b.add_object("b", 1);
        let p = b.uniform_capacities(2, 10).build().unwrap();
        // One object where the problem has two.
        let f = frac(vec![0.5, 0.5], 1, 2);
        assert!(matches!(
            round_best_of(&f, &p, 4, 1.0, 9),
            Err(CcaError::DimensionMismatch {
                what: "object count",
                expected: 2,
                actual: 1,
            })
        ));
    }
}
