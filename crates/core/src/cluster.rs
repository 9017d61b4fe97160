//! Capacity-bounded agglomerative clustering of the correlation graph.
//!
//! Used by the default LPRR path to decide *where to cut* components that
//! exceed a node's capacity — the decision the paper's LP relaxation cannot
//! make because its optimum is degenerate (see DESIGN.md §"Reproduction
//! findings"). Clusters are grown by repeatedly merging the pair of
//! clusters with the highest connecting weight whose combined size still
//! fits a node, i.e. the classic agglomerative heuristic the paper alludes
//! to with "the keywords can be well clustered into a small number of
//! co-placed groups (with low inter-group communication)".

use crate::problem::{CcaProblem, ObjectId};
use std::collections::{BinaryHeap, HashMap};

/// A candidate merge in the agglomeration heap.
#[derive(Debug, PartialEq)]
struct Merge {
    weight: f64,
    a: usize,
    b: usize,
}

impl Eq for Merge {}

impl Ord for Merge {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.weight
            .partial_cmp(&other.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (other.a, other.b).cmp(&(self.a, self.b)))
    }
}

impl PartialOrd for Merge {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Groups the problem's objects into clusters of total size at most
/// `max_bytes`, greedily maximising the pair weight kept inside clusters.
/// When the problem carries secondary resources (paper 3.3), a merge must
/// also keep every resource's combined demand within the smallest node
/// capacity for that resource.
///
/// Objects larger than `max_bytes` form singleton clusters (they cannot
/// share a node with anything under a strict reading of the capacity, but
/// placement still has to put them somewhere). Returns the clusters with
/// each member list sorted; cluster order is deterministic.
///
/// ```
/// use cca_core::{capacity_bounded_clusters, CcaProblem};
/// # fn main() -> Result<(), cca_core::ProblemError> {
/// let mut b = CcaProblem::builder();
/// let a = b.add_object("a", 10);
/// let c = b.add_object("b", 10);
/// b.add_pair(a, c, 0.9, 5.0)?;
/// let problem = b.uniform_capacities(2, 20).build()?;
/// // Budget 20 fits the pair together; budget 10 forces singletons.
/// assert_eq!(capacity_bounded_clusters(&problem, 20).len(), 1);
/// assert_eq!(capacity_bounded_clusters(&problem, 10).len(), 2);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn capacity_bounded_clusters(problem: &CcaProblem, max_bytes: u64) -> Vec<Vec<ObjectId>> {
    let t = problem.num_objects();
    let dims = problem.dimensions();
    // Per-dimension budgets over the capacity table: `max_bytes` for
    // storage, each other dimension's smallest node capacity.
    let mut budgets: Vec<u64> = (dims.iter())
        .map(|d| d.capacities().iter().copied().min().unwrap_or(0))
        .collect();
    budgets[0] = max_bytes;
    // Cluster state: representative id -> (members, size); merged clusters
    // are tombstoned.
    let mut members: Vec<Vec<u32>> = (0..t as u32).map(|i| vec![i]).collect();
    let mut sizes: Vec<Vec<u64>> = problem
        .objects()
        .map(|o| dims.iter().map(|d| d.demand(o.index())).collect())
        .collect();
    let mut alive: Vec<bool> = vec![true; t];
    let fits = |a: &[u64], b: &[u64], budgets: &[u64]| {
        a.iter()
            .zip(b)
            .zip(budgets)
            .all(|((&x, &y), &budget)| x.saturating_add(y) <= budget)
    };
    // Inter-cluster weights, keyed per cluster as neighbour maps.
    let mut weights: Vec<HashMap<usize, f64>> = vec![HashMap::new(); t];
    for edge in problem.graph().edges() {
        let (a, b) = (edge.a.index(), edge.b.index());
        *weights[a].entry(b).or_default() += edge.weight;
        *weights[b].entry(a).or_default() += edge.weight;
    }

    let mut heap: BinaryHeap<Merge> = BinaryHeap::new();
    for (a, nbrs) in weights.iter().enumerate() {
        for (&b, &w) in nbrs {
            if a < b {
                heap.push(Merge { weight: w, a, b });
            }
        }
    }

    while let Some(Merge { weight, a, b }) = heap.pop() {
        if !alive[a] || !alive[b] {
            continue; // stale entry
        }
        // Validate against the current weight (lazy deletion).
        let current = weights[a].get(&b).copied().unwrap_or(0.0);
        if (current - weight).abs() > 1e-12 * (1.0 + current.abs()) {
            continue; // superseded by a merged entry
        }
        if !fits(&sizes[a], &sizes[b], &budgets) {
            continue; // would not fit a node; sizes only grow, so drop
        }
        // Merge b into a (keep the smaller adjacency as the one walked).
        let (keep, gone) = if weights[a].len() >= weights[b].len() {
            (a, b)
        } else {
            (b, a)
        };
        alive[gone] = false;
        let gone_sizes = std::mem::take(&mut sizes[gone]);
        for (dst, src) in sizes[keep].iter_mut().zip(&gone_sizes) {
            *dst += src;
        }
        let moved = std::mem::take(&mut members[gone]);
        members[keep].extend(moved);
        let gone_nbrs = std::mem::take(&mut weights[gone]);
        for (nbr, w) in gone_nbrs {
            if nbr == keep || !alive[nbr] {
                weights[nbr].remove(&gone);
                continue;
            }
            weights[nbr].remove(&gone);
            let merged = {
                let entry = weights[keep].entry(nbr).or_default();
                *entry += w;
                *entry
            };
            weights[nbr].insert(keep, merged);
            if fits(&sizes[keep], &sizes[nbr], &budgets) {
                heap.push(Merge {
                    weight: merged,
                    a: keep.min(nbr),
                    b: keep.max(nbr),
                });
            }
        }
    }

    let mut clusters: Vec<Vec<ObjectId>> = (0..t)
        .filter(|&c| alive[c])
        .map(|c| {
            let mut m: Vec<ObjectId> = members[c].iter().map(|&i| ObjectId(i)).collect();
            m.sort_unstable();
            m
        })
        .collect();
    clusters.sort_unstable_by_key(|m| m[0]);
    clusters
}

/// Total pair weight cut between different clusters (the objective value a
/// placement would pay if every cluster landed on its own node and no two
/// clusters shared one).
#[must_use]
pub fn inter_cluster_weight(problem: &CcaProblem, clusters: &[Vec<ObjectId>]) -> f64 {
    let mut cluster_of = vec![usize::MAX; problem.num_objects()];
    for (c, m) in clusters.iter().enumerate() {
        for &o in m {
            cluster_of[o.index()] = c;
        }
    }
    problem
        .graph()
        .edges()
        .filter(|e| cluster_of[e.a.index()] != cluster_of[e.b.index()])
        .map(|e| e.weight)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> CcaProblem {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..6).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        // Two strong triangles, weak bridge.
        for g in 0..2 {
            for i in 0..3 {
                for j in i + 1..3 {
                    b.add_pair(o[g * 3 + i], o[g * 3 + j], 0.9, 10.0).unwrap();
                }
            }
        }
        b.add_pair(o[2], o[3], 0.05, 10.0).unwrap();
        b.uniform_capacities(2, 40).build().unwrap()
    }

    #[test]
    fn large_budget_keeps_components_whole() {
        let p = problem();
        let clusters = capacity_bounded_clusters(&p, 1000);
        assert_eq!(clusters.len(), 1, "everything is one component");
        assert_eq!(clusters[0].len(), 6);
    }

    #[test]
    fn tight_budget_cuts_the_weak_bridge() {
        let p = problem();
        let clusters = capacity_bounded_clusters(&p, 30);
        assert_eq!(clusters.len(), 2);
        for c in &clusters {
            assert_eq!(c.len(), 3, "triangles should stay whole: {clusters:?}");
        }
        // Only the weak bridge is cut.
        let cut = inter_cluster_weight(&p, &clusters);
        assert!((cut - 0.5).abs() < 1e-12, "cut weight {cut}");
    }

    #[test]
    fn budget_below_pair_size_gives_singletons() {
        let p = problem();
        let clusters = capacity_bounded_clusters(&p, 10);
        assert_eq!(clusters.len(), 6);
        let cut = inter_cluster_weight(&p, &clusters);
        assert!((cut - p.total_pair_weight()).abs() < 1e-12);
    }

    #[test]
    fn uncorrelated_objects_stay_single() {
        let mut b = CcaProblem::builder();
        for i in 0..4 {
            b.add_object(format!("o{i}"), 5);
        }
        let p = b.uniform_capacities(2, 100).build().unwrap();
        let clusters = capacity_bounded_clusters(&p, 100);
        assert_eq!(clusters.len(), 4);
    }

    #[test]
    fn merging_prefers_heavier_edges() {
        let mut b = CcaProblem::builder();
        let o: Vec<_> = (0..3).map(|i| b.add_object(format!("o{i}"), 10)).collect();
        b.add_pair(o[0], o[1], 0.9, 10.0).unwrap(); // weight 9
        b.add_pair(o[1], o[2], 0.1, 10.0).unwrap(); // weight 1
        let p = b.uniform_capacities(2, 20).build().unwrap();
        let clusters = capacity_bounded_clusters(&p, 20);
        assert_eq!(clusters.len(), 2);
        let big = clusters.iter().find(|c| c.len() == 2).unwrap();
        assert_eq!(big.as_slice(), &[o[0], o[1]]);
    }

    #[test]
    fn deterministic() {
        let p = problem();
        assert_eq!(
            capacity_bounded_clusters(&p, 30),
            capacity_bounded_clusters(&p, 30)
        );
    }
}
