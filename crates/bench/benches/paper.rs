//! The paper's evaluation in one run: Figures 2 and 5–7 (§4), the
//! offline computation cost (§3.1/§4.2) and the ablations of the LPRR
//! pipeline's design choices.
//!
//! Each distinct pipeline is built once and shared by every table that
//! uses it: the `BENCH_SEED` 10-node pipeline feeds Figure 5, the offline
//! cost table and the ablations; the seed 1–3 pipelines feed Figure 6, its
//! reference placements and Figure 7 (re-noded per node count). Figure 7's
//! 10-node row is Figure 6's row at the same scope, computed once.
//!
//! Every table prints as TSV and lands as one section of `BENCH_paper.json`
//! (override the path with `CCA_BENCH_OUT`), one row per line, each value
//! as the TSV prints it. Wall-clock seconds go only into the closing
//! `"wall_clock"` object, so everything before it is byte-identical between
//! two runs. `CCA_BENCH_QUICK=1` runs the small preset with fewer scopes,
//! seeds and node counts in a few seconds; the full run takes about 3
//! minutes on a 2-vCPU VM. `scripts/check.sh` gates the shape of both.

use cca::algo::{
    compose_with_hashed_rest, greedy_placement, importance_ranking, place_partial,
    random_hash_placement, repair::repair_capacity_with, round_best_of, scope_subproblem,
    solve_relaxation, LprrOptions, Placement, RelaxMethod, RelaxOptions, Strategy,
};
use cca::lp::SolverOptions;
use cca::pipeline::{CorrelationMode, Evaluation, Pipeline, PipelineConfig};
use cca::trace::{DriftConfig, PairStats, QueryLog, TraceConfig, Workload};
use cca_bench::{bench_config, header, quick_mode, ratio, BENCH_SEED};
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Cluster size of every table except Figure 7's sweep.
const NODES: usize = 10;

/// A JSON value as the TSV prints it: numbers, booleans and `[...]` lists
/// verbatim, anything else as a string.
fn json_value(cell: &str) -> String {
    let verbatim = cell.parse::<f64>().is_ok_and(f64::is_finite)
        || matches!(cell, "true" | "false")
        || cell.starts_with('[');
    if verbatim {
        cell.to_string()
    } else {
        format!("\"{}\"", cell.replace('\\', "\\\\").replace('"', "\\\""))
    }
}

/// One table's section of the ledger: each row is one JSON object of the
/// row's cells under the table's field names.
struct Table {
    key: &'static str,
    fields: &'static [&'static str],
    rows: Vec<String>,
}

impl Table {
    fn new(key: &'static str, fields: &'static [&'static str]) -> Self {
        Table {
            key,
            fields,
            rows: Vec::new(),
        }
    }

    /// Prints the `## title` TSV header; the printed columns are the fields.
    fn printed(key: &'static str, title: &str, columns: &'static [&'static str]) -> Self {
        header(title, columns);
        Table::new(key, columns)
    }

    /// Prints `cells` as one TSV row and records it.
    fn row(&mut self, cells: &[String]) {
        println!("{}", cells.join("\t"));
        self.record(cells);
    }

    /// Records `cells` without printing them; fields past the last cell are
    /// left out.
    fn record(&mut self, cells: &[String]) {
        let fields = self.fields.iter().zip(cells);
        let body: Vec<String> = fields
            .map(|(k, v)| format!("\"{k}\": {}", json_value(v)))
            .collect();
        self.rows.push(format!("{{{}}}", body.join(", ")));
    }

    /// The section's JSON text, indented by `pad`, one row per line.
    fn section(&self, pad: &str) -> String {
        let sep = format!(",\n{pad}  ");
        format!(
            "{pad}\"{}\": [\n{pad}  {}\n{pad}]",
            self.key,
            self.rows.join(&sep)
        )
    }
}

/// A 10-node pipeline over `seed`'s workload, with `edit` applied to the
/// paper's default configuration.
fn build(seed: u64, edit: impl FnOnce(&mut PipelineConfig)) -> Pipeline {
    let mut config = bench_config(NODES);
    config.seed = seed;
    edit(&mut config);
    Pipeline::build(&config)
}

/// Places with `strategy` over `scope` and replays the query log.
fn eval(p: &Pipeline, strategy: Strategy, scope: Option<usize>) -> Evaluation {
    p.evaluate(&strategy, scope).expect("placement")
}

/// Bytes the random-hash placement ships on the replayed query log.
fn random_bytes(p: &Pipeline) -> u64 {
    eval(p, Strategy::RandomHash, None).replay.total_bytes
}

fn fig2(ledger: &mut Vec<String>) {
    // Correlation statistics need a deep log so Poisson sampling noise
    // does not swamp the drift signal: the paper's Fig 2 used 29M queries;
    // 2M over our 10x-smaller vocabulary gives rank-1000 pairs a few
    // hundred observations each.
    let config = if quick_mode() {
        TraceConfig::small()
    } else {
        TraceConfig {
            num_queries: 2_000_000,
            ..TraceConfig::paper_scaled()
        }
    };
    let top_k = if quick_mode() { 200 } else { 1000 };

    println!("# Figure 2: skewness and stability of keyword correlations");
    println!(
        "# workload: {} queries over {} content words (seed {BENCH_SEED})",
        config.num_queries, config.vocab_size
    );

    let workload = Workload::generate(&config, BENCH_SEED);
    let jan = PairStats::from_log(&workload.queries);

    // February: drifted phrase popularities, fresh sampling noise.
    let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0xFEB);
    let feb_model = workload
        .model
        .drifted(DriftConfig::paper_calibrated(), &mut rng);
    let feb_log = feb_model.sample_log(workload.queries.len(), &mut rng);
    let feb = PairStats::from_log(&feb_log);

    // (A) Skewness: correlation by rank, log-scale in the paper.
    let mut fig2a = Table::printed(
        "fig2a",
        "Fig 2A: top keyword-pair correlations (January)",
        &["rank", "correlation_jan", "correlation_feb_same_pair"],
    );
    let top = jan.top_pairs(top_k);
    let ranks = [1, 2, 5, 10, 20, 50, 100, 200, 400, 600, 800, 1000];
    for rank in ranks.into_iter().filter(|&r| r <= top_k.min(top.len())) {
        let (pair, r) = top[rank - 1];
        let feb_r = feb.correlation(pair);
        fig2a.row(&[rank.to_string(), format!("{r:.6e}"), format!("{feb_r:.6e}")]);
    }
    let skew = format!("{:.1}", jan.skew_ratio(top_k).unwrap_or(f64::NAN));
    println!();
    println!("skew ratio (rank 1 / rank {top_k}): {skew}  [paper: 177x at rank 1000]");
    let mut fig2 = Table::new("fig2", &["queries", "content_words", "top_k", "skew_ratio"]);
    let sizes = [config.num_queries, config.vocab_size, top_k];
    fig2.record(&[sizes.map(|n| n.to_string()).as_slice(), &[skew]].concat());

    // (B) Stability.
    let mut fig2b = Table::printed(
        "fig2b",
        "Fig 2B: month-over-month stability",
        &["metric", "value", "paper"],
    );
    let changed = jan.fraction_changed_beyond_2x(&feb, top_k);
    let metric = format!("fraction of top-{top_k} pairs changed >2x or <0.5x");
    fig2b.row(&[metric, format!("{changed:.4}"), "0.012".into()]);
    for (month, stats) in [("jan", &jan), ("feb", &feb)] {
        let observed = stats.num_pairs().to_string();
        fig2b.row(&[format!("{month} pairs observed"), observed, "-".into()]);
    }
    ledger.extend([&fig2, &fig2a, &fig2b].map(|t| t.section("  ")));
}

fn fig5(ledger: &mut Vec<String>, pipeline: &Pipeline) {
    println!();
    println!("# Figure 5: dominance of important keywords");
    let problem = &pipeline.problem;

    let ranking = importance_ranking(problem);
    let total_size: f64 = problem.objects().map(|o| problem.size(o) as f64).sum();
    let total_weight = problem.total_pair_weight();

    let mut table = Table::printed(
        "fig5",
        "cumulative coverage vs importance rank",
        &["rank", "rank_fraction", "cum_index_size", "cum_comm_cost"],
    );
    let checkpoints: Vec<usize> = if quick_mode() {
        vec![50, 100, 200, 500, 1000, 1500, 1999]
    } else {
        vec![
            250, 500, 1000, 2000, 4000, 6000, 10_000, 15_000, 20_000, 25_000,
        ]
    };
    let mut included = vec![false; problem.num_objects()];
    let mut size_acc = 0.0;
    let mut cost_acc = 0.0;
    let mut next_cp = 0;
    for (idx, &o) in ranking.iter().enumerate() {
        size_acc += problem.size(o) as f64;
        // A pair's cost is covered once both endpoints are in the prefix.
        for (other, w) in problem.graph().neighbors(o) {
            if included[other.index()] {
                cost_acc += w;
            }
        }
        included[o.index()] = true;
        if next_cp < checkpoints.len() && idx + 1 == checkpoints[next_cp].min(ranking.len()) {
            let cost = if total_weight > 0.0 {
                cost_acc / total_weight
            } else {
                0.0
            };
            table.row(&[
                (idx + 1).to_string(),
                format!("{:.4}", (idx + 1) as f64 / ranking.len() as f64),
                format!("{:.4}", size_acc / total_size),
                format!("{cost:.4}"),
            ]);
            next_cp += 1;
        }
    }
    ledger.push(table.section("  "));
    println!();
    println!("# paper: at 10000 of 253334 keywords (4%), both curves already cover");
    println!("# a large proportion; our rank 1000 of 25000 is the scaled analogue.");
}

/// Greedy and LPRR at `scope` on every sweep pipeline, each normalised to
/// that pipeline's random-hash bytes: the cells of one Fig 6 or Fig 7 row
/// after its first column (means over seeds, then LPRR per seed).
fn sweep_cells(pipelines: &[Pipeline], baselines: &[u64], scope: usize) -> [String; 4] {
    let (mut greedy_sum, mut lprr_sum, mut imb_sum) = (0.0, 0.0, 0.0);
    let mut per_seed = Vec::new();
    for (p, &base) in pipelines.iter().zip(baselines) {
        let greedy = eval(p, Strategy::Greedy, Some(scope));
        let lprr = eval(p, Strategy::lprr(), Some(scope));
        greedy_sum += greedy.replay.total_bytes as f64 / base as f64;
        let l = lprr.replay.total_bytes as f64 / base as f64;
        lprr_sum += l;
        imb_sum += lprr.imbalance;
        per_seed.push(format!("{l:.3}"));
    }
    let n = pipelines.len() as f64;
    [
        format!("{:.4}", greedy_sum / n),
        format!("{:.4}", lprr_sum / n),
        format!("{:.2}", imb_sum / n),
        format!("[{}]", per_seed.join(",")),
    ]
}

/// Figures 6 and 7 over the seed sweep's pipelines, plus Figure 6's
/// reference placements on the first seed.
fn fig6_and_7(ledger: &mut Vec<String>) {
    let quick = quick_mode();
    let (scopes, seeds): (&[usize], &[u64]) = if quick {
        (&[50, 100, 200, 400], &[1])
    } else {
        (
            &[100, 200, 300, 400, 500, 600, 700, 800, 900, 1000],
            &[1, 2, 3],
        )
    };
    let (node_counts, fig7_scope): (&[usize], usize) = if quick {
        (&[5, 10, 20], 200)
    } else {
        (&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100], 1000)
    };

    println!();
    println!("# Figure 6: communication overhead vs optimization scope (10 nodes)");
    let mut pipelines: Vec<Pipeline> = seeds.iter().map(|&s| build(s, |_| {})).collect();
    let baselines: Vec<u64> = pipelines.iter().map(random_bytes).collect();
    for ((&seed, p), &base) in seeds.iter().zip(&pipelines).zip(&baselines) {
        let (keywords, pairs) = (p.problem.num_objects(), p.problem.pairs().len());
        println!("# seed {seed}: {keywords} keywords, {pairs} pairs, random baseline {base} bytes");
    }

    let mut fig6 = Table::printed(
        "fig6",
        "normalised communication vs scope (mean over seeds)",
        &[
            "scope",
            "greedy_norm",
            "lprr_norm",
            "lprr_imbalance",
            "per_seed_lprr",
        ],
    );
    let mut by_scope = BTreeMap::new();
    for &scope in scopes {
        let cells = sweep_cells(&pipelines, &baselines, scope);
        fig6.row(&[&[scope.to_string()], &cells[..]].concat());
        by_scope.insert(scope, cells);
    }
    println!();
    println!("# paper: greedy 0.90->0.56, lprr 0.78->0.22 over the sweep;");
    println!("# expected shape: both fall with scope, lprr clearly below greedy.");

    // Reference placements on the first seed: the largest scope on node 0
    // (capacity ignored) with the rest hashed, every keyword on node 0, and
    // LPRR over the full vocabulary.
    let scope = scopes[scopes.len() - 1];
    let (p, base) = (&pipelines[0], baselines[0]);
    let mut reference = Table::printed(
        "fig6_reference",
        &format!(
            "reference placements, seed {} (normalised to random)",
            seeds[0]
        ),
        &["placement", "norm", "imbalance"],
    );
    let mut on_one = random_hash_placement(&p.problem);
    for &o in importance_ranking(&p.problem).iter().take(scope) {
        on_one.assign(o, 0);
    }
    let all_on_one = Placement::new(vec![0; p.problem.num_objects()], p.problem.num_nodes());
    let full = p.place(&Strategy::lprr(), None).expect("lprr").placement;
    let placements = [
        (format!("top-{scope}-on-node-0"), on_one),
        ("all-on-node-0".into(), all_on_one),
        ("lprr-full-scope".into(), full),
    ];
    for (name, placement) in placements {
        let imbalance = p.cluster_for(&placement).imbalance();
        let norm = ratio(p.replay(&placement).total_bytes, base);
        reference.row(&[name, norm, format!("{imbalance:.2}")]);
    }

    println!();
    println!("# Figure 7: communication overhead vs number of nodes (scope = top 1000)");
    let mut fig7 = Table::printed(
        "fig7",
        "normalised communication vs node count (mean over seeds)",
        &[
            "nodes",
            "greedy_norm",
            "lprr_norm",
            "lprr_imbalance",
            "per_seed_lprr",
        ],
    );
    for &n in node_counts {
        // Figure 6's row at Figure 7's scope is the 10-node row.
        let cells = if n == NODES {
            by_scope[&fig7_scope].clone()
        } else {
            for p in &mut pipelines {
                p.renode(n);
            }
            let baselines: Vec<u64> = pipelines.iter().map(random_bytes).collect();
            sweep_cells(&pipelines, &baselines, fig7_scope)
        };
        fig7.row(&[&[n.to_string()], &cells[..]].concat());
    }
    println!();
    println!("# paper: lprr 0.27 -> 0.14 (40 nodes) -> 0.27; greedy best at few nodes.");
    println!("# expected shape here: lprr well below greedy throughout; savings");
    println!("# diminish as nodes grow (per-node capacity shrinks). See");
    println!("# EXPERIMENTS.md for the discussion of the paper's small-n dip.");

    ledger.extend([&fig6, &reference, &fig7].map(|t| t.section("  ")));
}

/// The offline cost of computing a placement, per scope and relaxation
/// method. Returns the wall-clock seconds of each row, for the
/// `"wall_clock"` object.
fn offline_cost(ledger: &mut Vec<String>, pipeline: &Pipeline) -> Table {
    println!();
    println!("# Offline computation cost vs optimization scope (paper 3.1/4.2)");
    let (scopes, cp_limit): (&[usize], usize) = if quick_mode() {
        (&[50, 100, 200], 100)
    } else {
        (&[100, 250, 500, 1000], 250)
    };
    header(
        "placement computation wall time",
        &["scope", "method", "seconds", "expected_cost"],
    );
    let mut table = Table::new(
        "offline_cost",
        &["scope", "method", "expected_cost", "converged"],
    );
    let mut wall = Table::new("offline_seconds", &["scope", "method", "seconds"]);
    // Prints one row and records its cost cells and its seconds apart.
    let mut row = |scope: usize, method: &str, t0: Instant, printed: String, cells: &[String]| {
        let secs = format!("{:.4}", t0.elapsed().as_secs_f64());
        println!("{scope}\t{method}\t{secs}\t{printed}");
        let head = [scope.to_string(), method.to_string()];
        table.record(&[&head[..], cells].concat());
        wall.record(&[&head[..], &[secs]].concat());
    };
    let ranking = importance_ranking(&pipeline.problem);
    for &scope in scopes {
        let keep: Vec<_> = ranking.iter().copied().take(scope).collect();
        let sub = scope_subproblem(&pipeline.problem, &keep, false);

        // Production path: clustered vertex.
        let t0 = Instant::now();
        let out = solve_relaxation(&sub, None, &RelaxOptions::default()).expect("relaxation");
        let cost = format!("{:.2}", out.objective);
        row(scope, "clustered-vertex", t0, cost.clone(), &[cost]);

        // Full simplex cutting-plane path (the LPsolve analogue), kept to
        // modest scopes — this is the expensive configuration the paper's
        // 48-hour figure refers to.
        if scope <= cp_limit {
            let seed = greedy_placement(&sub);
            let opts = RelaxOptions {
                method: RelaxMethod::CuttingPlane,
                max_rounds: 12,
                solver: SolverOptions {
                    max_iterations: 200_000,
                    ..SolverOptions::default()
                },
                ..RelaxOptions::default()
            };
            let t0 = Instant::now();
            let (printed, cells) = match solve_relaxation(&sub, Some(&seed), &opts) {
                Ok(out) => {
                    let (cost, converged) = (format!("{:.2}", out.objective), out.converged);
                    let printed = format!("{cost} (converged={converged})");
                    (printed, vec![cost, converged.to_string()])
                }
                Err(e) => (format!("failed: {e}"), vec![format!("failed: {e}")]),
            };
            row(scope, "cutting-plane", t0, printed, &cells);
        }

        // End-to-end LPRR (relaxation + rounding + repair) for context.
        let t0 = Instant::now();
        let report = place_partial(&pipeline.problem, scope, &Strategy::lprr()).expect("lprr");
        let cost = format!("{:.2}", report.cost);
        let printed = format!("cost {cost}");
        row(scope, "lprr-end-to-end", t0, printed, &[cost]);
    }
    println!();
    println!("# paper: 48h at scope 10000 on 2008 LPsolve; the degenerate-LP");
    println!("# shortcut (see DESIGN.md) reduces the offline cost to seconds.");
    ledger.push(table.section("  "));
    wall
}

/// Ablations of the design choices called out in DESIGN.md: rounding
/// repetitions, capacity slack, the correlation-estimation mode (§2.1
/// all-pairs vs §3.2 two-smallest), the repair stage's improvement sweeps,
/// pair pruning (the sparse-E assumption of §3.1) and log-history length.
fn ablations(ledger: &mut Vec<String>, pipeline: &Pipeline) {
    println!();
    println!("# Ablations of the LPRR pipeline (10 nodes)");
    let scope = if quick_mode() { 200 } else { 1000 };
    let base = random_bytes(pipeline);
    println!("# random-hash baseline: {base} bytes");
    let lprr = |opts: LprrOptions| eval(pipeline, Strategy::Lprr(opts), Some(scope));
    let degenerate = RelaxOptions {
        method: RelaxMethod::CombinatorialVertex,
        ..Default::default()
    };

    // 1. Rounding repetitions. Run on the *degenerate* LP-optimal vertex
    // (identical rows per correlation component): there rounding is
    // genuinely stochastic and best-of-k picks across node assignments.
    // The default clustered vertex is near-integral, so these knobs barely
    // move it — which is itself a finding worth a row.
    let mut table = Table::printed(
        "ablation1_repetitions",
        "ablation 1: rounding repetitions (best-of-k), degenerate LP vertex",
        &[
            "repetitions",
            "lprr_norm(degenerate)",
            "lprr_norm(clustered)",
        ],
    );
    for repetitions in [1usize, 4, 16, 64] {
        let clustered = LprrOptions {
            repetitions,
            ..LprrOptions::default()
        };
        let degen = LprrOptions {
            relax: degenerate.clone(),
            ..clustered.clone()
        };
        let [d, c] = [degen, clustered].map(|o| ratio(lprr(o).replay.total_bytes, base));
        table.row(&[repetitions.to_string(), d, c]);
    }
    ledger.push(table.section("  "));

    // 2. Capacity slack under the degenerate vertex, where repair does all
    // the capacity work and the slack genuinely binds.
    let mut table = Table::printed(
        "ablation2_slack",
        "ablation 2: capacity slack (conservative capacities, paper 2.3)",
        &["slack", "lprr_norm(degenerate)", "imbalance"],
    );
    for capacity_slack in [1.0f64, 1.05, 1.2, 1.5] {
        let opts = LprrOptions {
            capacity_slack,
            relax: degenerate.clone(),
            ..Default::default()
        };
        let e = lprr(opts);
        let norm = ratio(e.replay.total_bytes, base);
        table.row(&[
            capacity_slack.to_string(),
            norm,
            format!("{:.2}", e.imbalance),
        ]);
    }
    ledger.push(table.section("  "));

    // 3. Correlation estimation mode. The base pipeline estimates
    // two-smallest correlations (§3.2, the default), and it is the
    // unpruned row of ablation 5.
    let base_cells = [
        ratio(lprr(LprrOptions::default()).replay.total_bytes, base),
        pipeline.problem.pairs().len().to_string(),
    ];
    let variant = |edit: &dyn Fn(&mut PipelineConfig)| {
        let p = build(BENCH_SEED, edit);
        let norm = ratio(
            eval(&p, Strategy::lprr(), Some(scope)).replay.total_bytes,
            random_bytes(&p),
        );
        [norm, p.problem.pairs().len().to_string()]
    };
    let mut table = Table::printed(
        "ablation3_correlation",
        "ablation 3: correlation estimation (2.1 all-pairs vs 3.2 two-smallest)",
        &["mode", "lprr_norm", "pairs_in_problem"],
    );
    table.row(&[&["two-smallest".into()], &base_cells[..]].concat());
    let all_pairs = variant(&|c| c.correlation = CorrelationMode::AllPairs);
    table.row(&[&["all-pairs".into()], &all_pairs[..]].concat());
    ledger.push(table.section("  "));

    // 4. Repair stage: round once, then repair with varying effort. The
    // degenerate LP-optimal vertex co-locates whole correlation
    // components, so every rounding needs real repair — the configuration
    // where this stage earns its keep.
    let mut table = Table::printed(
        "ablation4_repair",
        "ablation 4: capacity repair (moves after rounding the degenerate vertex)",
        &[
            "improvement_sweeps",
            "model_cost",
            "within_capacity",
            "moves",
        ],
    );
    let keep: Vec<_> = importance_ranking(&pipeline.problem)
        .into_iter()
        .take(scope)
        .collect();
    let sub = scope_subproblem(&pipeline.problem, &keep, false);
    let relax = solve_relaxation(&sub, None, &degenerate).expect("relaxation");
    for sweeps in [0usize, 2, 8] {
        let rounded =
            round_best_of(&relax.fractional, &sub, 16, 1.05, BENCH_SEED).expect("rounding");
        let mut placement = rounded.placement;
        let outcome = repair_capacity_with(&sub, &mut placement, 1.05, sweeps);
        let full = compose_with_hashed_rest(&pipeline.problem, &keep, &placement);
        table.row(&[
            sweeps.to_string(),
            format!("{:.1}", full.communication_cost(&pipeline.problem)),
            outcome.feasible.to_string(),
            outcome.moves.to_string(),
        ]);
    }
    ledger.push(table.section("  "));

    // 6 (printed before 5). History sensitivity: how much query log does
    // the optimizer need before its placement approaches the full-log
    // quality? Correlations are re-estimated from the first K queries;
    // replay always uses the full log.
    let mut table = Table::printed(
        "ablation6_history",
        "ablation 6: log-history sensitivity (queries used for estimation)",
        &["history_queries", "lprr_norm"],
    );
    let log = &pipeline.workload.queries;
    let fractions: &[f64] = if quick_mode() {
        &[0.05, 0.25, 1.0]
    } else {
        &[0.01, 0.05, 0.1, 0.25, 0.5, 1.0]
    };
    for &frac in fractions {
        let k = ((log.len() as f64 * frac) as usize).max(100).min(log.len());
        let partial = QueryLog {
            queries: log.queries[..k].to_vec(),
            universe: log.universe,
        };
        let problem = pipeline.problem_for_log(&partial);
        let report = place_partial(&problem, scope, &Strategy::lprr()).expect("lprr");
        table.row(&[
            k.to_string(),
            ratio(pipeline.replay(&report.placement).total_bytes, base),
        ]);
    }
    ledger.push(table.section("  "));

    // 5. Pair pruning (sparse-E assumption).
    let mut table = Table::printed(
        "ablation5_pruning",
        "ablation 5: pair pruning (keep only the heaviest pairs)",
        &["max_pairs", "lprr_norm", "pairs_kept"],
    );
    table.row(&[&["all".into()], &base_cells[..]].concat());
    for max_pairs in [4000usize, 2000, 1000, 500] {
        // A cap at or above the base's pair count prunes nothing.
        let cells = if max_pairs >= pipeline.problem.pairs().len() {
            base_cells.clone()
        } else {
            variant(&|c| c.max_pairs = max_pairs)
        };
        table.row(&[&[max_pairs.to_string()], &cells[..]].concat());
    }
    ledger.push(table.section("  "));
}

fn main() {
    let start = Instant::now();
    let mut ledger = vec![
        "  \"bench\": \"paper\"".to_string(),
        format!("  \"seed\": {BENCH_SEED}"),
        format!("  \"quick\": {}", quick_mode()),
    ];
    fig2(&mut ledger);
    let base = build(BENCH_SEED, |_| {});
    fig5(&mut ledger, &base);
    fig6_and_7(&mut ledger);
    let offline_seconds = offline_cost(&mut ledger, &base);
    ablations(&mut ledger, &base);
    ledger.push(format!(
        "  \"wall_clock\": {{\n{},\n    \"total_s\": {:.1}\n  }}",
        offline_seconds.section("    "),
        start.elapsed().as_secs_f64()
    ));

    let path = std::env::var("CCA_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json").to_string()
    });
    let out = format!("{{\n{}\n}}\n", ledger.join(",\n"));
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("wrote paper ledger to {path}");
}
