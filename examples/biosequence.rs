//! Union-like multi-object operations over a partitioned biological
//! sequence database (the paper's second motivating application, §1.1 and
//! §3.2).
//!
//! "A large biological sequence database may be partitioned and placed on
//! multiple machines for scalability. A query may search specific parts of
//! the database … and search results from all relevant parts are finally
//! aggregated in a union-like fashion."
//!
//! Per §3.2, a union-like operation transfers every requested partition to
//! the node of the largest one, so its cost decomposes into two-object
//! operations `(largest, other)` with `w = size(other)`. This example
//! builds that correlation model from a synthetic query workload, places
//! the partitions with all three strategies, and replays the workload.
//!
//! Run with: `cargo run --release --example biosequence`

use cca::algo::{place, CcaProblem, ObjectId, Strategy};
use cca::trace::zipf::Zipf;
use cca_rand::rngs::StdRng;
use cca_rand::{Rng, SeedableRng};

/// A multi-partition search: indices of the requested partitions.
struct SequenceQuery {
    parts: Vec<usize>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(1859);
    let num_partitions = 240;
    let num_nodes = 8;
    let num_queries = 60_000;

    // Partition sizes: a few reference genomes dominate (Zipf over ranks).
    let size_dist = Zipf::new(num_partitions, 0.9);
    let sizes: Vec<u64> = (0..num_partitions)
        .map(|p| (4_000_000.0 * size_dist.probability(p)).round() as u64 + 50_000)
        .collect();

    // Taxonomic groups: queries usually span one group of related
    // partitions (e.g. one clade), occasionally a random selection.
    let num_groups = 60;
    let group_of: Vec<usize> = (0..num_partitions).map(|p| p % num_groups).collect();
    let group_dist = Zipf::new(num_groups, 0.8);
    let mut queries = Vec::with_capacity(num_queries);
    for _ in 0..num_queries {
        let parts: Vec<usize> = if rng.random::<f64>() < 0.8 {
            let g = group_dist.sample(&mut rng);
            let members: Vec<usize> = (0..num_partitions).filter(|&p| group_of[p] == g).collect();
            let take = 2 + rng.random_range(0..3.min(members.len() - 1));
            let mut chosen = members;
            // Fisher–Yates prefix shuffle.
            for i in 0..take {
                let j = rng.random_range(i..chosen.len());
                chosen.swap(i, j);
            }
            chosen.truncate(take);
            chosen
        } else {
            let mut set = std::collections::HashSet::new();
            while set.len() < 3 {
                set.insert(rng.random_range(0..num_partitions));
            }
            set.into_iter().collect()
        };
        queries.push(SequenceQuery { parts });
    }

    // Union-cost correlation model (§3.2): pairs (largest, other).
    let mut builder = CcaProblem::builder();
    let objects: Vec<ObjectId> = (0..num_partitions)
        .map(|p| builder.add_object(format!("partition{p:03}"), sizes[p]))
        .collect();
    let mut pair_counts: std::collections::HashMap<(usize, usize), u64> =
        std::collections::HashMap::new();
    for q in &queries {
        let &largest = q
            .parts
            .iter()
            .max_by_key(|&&p| (sizes[p], p))
            .expect("non-empty query");
        for &p in &q.parts {
            if p != largest {
                let key = (largest.min(p), largest.max(p));
                *pair_counts.entry(key).or_default() += 1;
            }
        }
    }
    for (&(a, b), &count) in &pair_counts {
        let r = count as f64 / num_queries as f64;
        let w = sizes[a].min(sizes[b]) as f64; // the non-largest is shipped
        builder.add_pair(objects[a], objects[b], r, w)?;
    }
    let total: u64 = sizes.iter().sum();
    let capacity = (2.0 * total as f64 / num_nodes as f64).ceil() as u64;
    let problem = builder.uniform_capacities(num_nodes, capacity).build()?;

    println!(
        "partitioned sequence database: {num_partitions} partitions, {num_nodes} nodes, \
         {} correlated pairs",
        problem.pairs().len()
    );
    println!(
        "{:<14} {:>16} {:>10} {:>10}",
        "strategy", "bytes moved", "vs random", "max load"
    );

    // Replay: union semantics — ship every partition to the largest's node.
    let replay = |placement: &cca::algo::Placement| -> u64 {
        queries
            .iter()
            .map(|q| {
                let &largest = q.parts.iter().max_by_key(|&&p| (sizes[p], p)).unwrap();
                let host = placement.node_of(objects[largest]);
                q.parts
                    .iter()
                    .filter(|&&p| placement.node_of(objects[p]) != host)
                    .map(|&p| sizes[p])
                    .sum::<u64>()
            })
            .sum()
    };

    let mut baseline = None;
    for strategy in [Strategy::RandomHash, Strategy::Greedy, Strategy::lprr()] {
        let report = place(&problem, &strategy)?;
        let bytes = replay(&report.placement);
        let base = *baseline.get_or_insert(bytes);
        println!(
            "{:<14} {:>16} {:>9.1}% {:>10}",
            report.strategy,
            bytes,
            100.0 * bytes as f64 / base as f64,
            report.placement.loads(&problem).iter().max().unwrap(),
        );
    }
    println!();
    println!("Co-locating each clade's partitions with its reference genome");
    println!("makes most union aggregations local.");
    Ok(())
}
