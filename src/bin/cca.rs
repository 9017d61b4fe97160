//! `cca` — command-line front end for the correlation-aware placement
//! pipeline.
//!
//! ```text
//! cca workload [--preset small|paper] [--seed N]
//!     print workload and correlation statistics (Fig 2-style)
//!
//! cca evaluate [--preset small|paper] [--seed N] [--nodes N] [--scope N]
//!     place with all three strategies, replay the trace, print the table
//!
//! cca place [--strategy random|greedy|lprr] [--nodes N] [--scope N] ...
//!     compute one placement and print per-node loads
//!
//! cca place --deadline-ms N [--min-strategy S] ...
//!     resilient placement through the degradation ladder: try the
//!     requested strategy within the wall-clock budget, fall back towards
//!     hash placement, and print the degradation report
//!
//! cca export-lp [--scope N] [--out FILE] ...
//!     write the scoped Figure-4 LP in CPLEX LP format (for external
//!     solvers such as the LPsolve the paper used)
//!
//! cca replay --placement FILE [--preset ...] [--seed N] [--nodes N]
//!     load a placement saved by `cca place --out` and replay the trace
//!
//! cca probe [--candidates K] [--scope N] [--seed N] ...
//!     solve the LP relaxation once, round K candidate placements, score
//!     all of them with one batched serving probe, and keep the placement
//!     that moves the fewest bytes on the query log
//!
//! cca run --epochs N [--seed S] [--drop-nodes K] [--drift-sigma F] ...
//!     online re-optimization loop: drift the query model each epoch,
//!     track EWMA correlation estimates, and migrate scoped placements
//!     only when projected savings amortize the migration bytes; seeded
//!     node losses are repaired mid-run (report on stdout)
//!
//! cca serve [--queries N] [--inflight K] [--deadline-ms D] ...
//!     serving front: place greedily, sample a fresh query stream, and
//!     serve it in batched admission windows; stdout is
//!     the deterministic `# cca-serving-report v1` (byte-identical for
//!     any --threads/--shards/--inflight), human summary on stderr
//!
//! cca live [--epochs N] [--warm-drift K] [--migration-budget B] ...
//!     live re-optimizing runtime: serving and the drift controller in
//!     one epoch loop — the admitted serving stream feeds the
//!     controller's estimates, accepted migrations ship as per-epoch
//!     byte-budgeted slices between serving windows, and migration
//!     bytes are charged into the serving virtual-time ledger; stdout
//!     is the deterministic `# cca-live-report v1` (byte-identical for
//!     any --threads/--shards/--inflight)
//! ```
//!
//! `place --out FILE` saves the computed placement; `workload --out FILE`
//! dumps the query log in the v1 text format.
//!
//! Exit codes: `0` success; `1` usage or I/O error; `2` a placement was
//! produced but degraded (a worse rung than requested was selected, or
//! capacities had to be repaired); `3` the placement is infeasible
//! (capacity violations remain).
//!
//! Argument parsing is deliberately dependency-free.

use cca::algo::{
    compose_with_hashed_rest, figure4::Figure4Lp, format_placement, format_replica_placement,
    format_report, greedy_placement, importance_ranking, round_samples_scored, scope_subproblem,
    solve_relaxation, solve_resilient_replicated,
    spread_copies, validate_replica_spec, ControllerConfig, DomainTree, FaultPlan, ObjectId,
    RelaxOptions, ResilienceOptions, Rung, SolveBudget, Strategy,
};
use cca::online::{run_online, OnlineConfig};
use cca::pipeline::{Pipeline, PipelineConfig};
use cca::runtime::{run_live, LiveConfig};
use cca::serve::{serve, ServeConfig};
use cca::trace::TraceConfig;
use cca_rand::rngs::StdRng;
use cca_rand::SeedableRng;
use std::ops::RangeInclusive;
use std::process::ExitCode;
use std::time::Duration;

#[derive(Debug, Clone)]
struct Args {
    preset: String,
    seed: u64,
    nodes: usize,
    scope: Option<usize>,
    strategy: String,
    deadline_ms: Option<u64>,
    min_strategy: Option<String>,
    threads: Option<usize>,
    shards: Option<usize>,
    capacity_factor: Option<f64>,
    out: Option<String>,
    placement: Option<String>,
    candidates: usize,
    epochs: u64,
    queries_per_epoch: usize,
    drift_sigma: f64,
    drop_nodes: usize,
    queries: usize,
    inflight: usize,
    migration_budget: u64,
    warm_drift: u64,
    drift_epochs: Option<u64>,
    replicas: usize,
    domains: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            preset: "small".into(),
            seed: 42,
            nodes: 10,
            scope: Some(400),
            strategy: "lprr".into(),
            deadline_ms: None,
            min_strategy: None,
            threads: None,
            shards: None,
            capacity_factor: None,
            out: None,
            placement: None,
            candidates: 8,
            epochs: 1000,
            queries_per_epoch: 64,
            drift_sigma: 0.02,
            drop_nodes: 0,
            queries: 10_000,
            inflight: 64,
            migration_budget: 64 * 1024,
            warm_drift: 0,
            drift_epochs: None,
            replicas: 1,
            domains: None,
        }
    }
}

impl Args {
    /// Worker threads for the solve: `--threads N`, defaulting to the
    /// machine's available parallelism. The thread count never changes the
    /// computed placement — `--threads 1` merely runs everything inline.
    fn threads(&self) -> usize {
        self.threads.unwrap_or_else(cca_par::available_parallelism)
    }
}

fn usage() -> &'static str {
    "usage: cca <workload|evaluate|place|replay|export-lp|probe|run|serve|live> [options]\n\
     options:\n\
       --preset small|paper   workload size (default small)\n\
       --seed N               workload seed (default 42)\n\
       --nodes N              cluster size, 1..=1024 (default 10)\n\
       --scope N              optimization scope; 'full' for all objects (default 400)\n\
       --strategy S           random|greedy|lprr (place only; default lprr)\n\
       --deadline-ms N        wall-clock budget; enables the resilient\n\
                              degradation ladder (place only)\n\
       --min-strategy S       worst rung the ladder may select:\n\
                              lprr|partial-lprr|greedy|hash (place only)\n\
       --threads N            worker threads for the solve, 1..=256\n\
                              (default: all cores; results are identical\n\
                              for any N)\n\
       --shards N             evaluate bulk costs on an N-shard graph\n\
                              view, 1..=10000000 (every subcommand;\n\
                              --shards 1 equals no sharding; with more\n\
                              shards, non-dyadic weights may change the\n\
                              last bits of a cost)\n\
       --capacity-factor F    per-node capacity as a multiple of the\n\
                              average load (default 2.0, as in the paper)\n\
       --out FILE             output path (place/workload/export-lp/probe)\n\
       --placement FILE       saved placement to replay (replay only)\n\
       --candidates K         rounding candidates scored per batched\n\
                              probe, 1..=1024 (probe only; default 8)\n\
       --epochs N             epochs of the online controller loop,\n\
                              1..=1000000 (run/live; default 1000)\n\
       --queries-per-epoch Q  queries sampled per epoch, 1..=10000000\n\
                              (run/live; default 64)\n\
       --drift-sigma F        per-epoch drift of the query model (run\n\
                              only; default 0.02 — the paper's month is\n\
                              sigma 0.276)\n\
       --drop-nodes K         chaos: K node losses spread across the run,\n\
                              0..=1024 (run only; default 0)\n\
       --queries N            queries in the served stream, 1..=10000000\n\
                              (serve only; default 10000)\n\
       --inflight K           admission-window size: max queries in\n\
                              flight and max batch per dispatch,\n\
                              1..=10000000 (serve/live; default 64; the\n\
                              report is identical for any K)\n\
       --migration-budget B   max migration bytes shipped per epoch\n\
                              (live only; default 65536)\n\
       --warm-drift K         drift steps applied before the first epoch\n\
                              — the regime shift the run recovers from,\n\
                              0..=1000000 (live only; default 0)\n\
       --drift-epochs N       drift only the first N epochs, or 'all'\n\
                              (live only; default all)\n\
       --replicas R           copies of every object, spread across\n\
                              distinct failure domains (place/probe/\n\
                              serve/run/live; default 1 = exact\n\
                              single-copy behaviour)\n\
       --domains SPEC         failure-domain tree over the nodes:\n\
                              'flat' (one domain per node, default),\n\
                              'D' (D contiguous domains), or 'ZxL'\n\
                              (Z zones of L leaf domains); requires\n\
                              replicas <= leaf domains\n\
     exit codes: 0 ok, 1 error, 2 degraded placement, 3 infeasible placement"
}

/// Unified parse-and-validate for count-valued flags: every count must lie
/// in `range`. The floor is 1 wherever zero is not a meaningful "off"
/// (degenerate zeros would otherwise surface as downstream panics or
/// silent empty output). A finite ceiling bounds every count that sizes
/// an allocation, a thread pool or a loop up front (nodes, node losses,
/// epochs, queries, threads, shards, in-flight window, warm drift), so an
/// oversized value is a usage error instead of an allocation failure, a
/// flood of OS threads or a run that never ends.
fn parse_count(flag: &str, raw: &str, range: RangeInclusive<u64>) -> Result<u64, String> {
    let n: u64 = raw
        .parse()
        .map_err(|e| format!("{flag}: {e}"))?;
    if n < *range.start() {
        return Err(format!("{flag} must be at least {}", range.start()));
    }
    if n > *range.end() {
        return Err(format!("{flag} must be at most {}", range.end()));
    }
    Ok(n)
}

/// Parses a finite non-negative float flag.
fn parse_nonnegative(flag: &str, raw: &str) -> Result<f64, String> {
    let f: f64 = raw.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !(f.is_finite() && f >= 0.0) {
        return Err(format!("{flag} must be a finite non-negative number"));
    }
    Ok(f)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--preset" => args.preset = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--nodes" => args.nodes = parse_count(flag, &value()?, 1..=1024)? as usize,
            "--scope" => {
                let v = value()?;
                args.scope = if v == "full" {
                    None
                } else {
                    Some(parse_count(flag, &v, 1..=u64::MAX)? as usize)
                };
            }
            "--strategy" => args.strategy = value()?,
            "--deadline-ms" => {
                args.deadline_ms =
                    Some(value()?.parse().map_err(|e| format!("--deadline-ms: {e}"))?);
            }
            "--min-strategy" => args.min_strategy = Some(value()?),
            "--threads" => {
                let max = cca_par::MAX_THREADS as u64;
                args.threads = Some(parse_count(flag, &value()?, 1..=max)? as usize);
            }
            "--shards" => {
                args.shards = Some(parse_count(flag, &value()?, 1..=10_000_000)? as usize);
            }
            "--capacity-factor" => {
                let f: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--capacity-factor: {e}"))?;
                if !(f.is_finite() && f > 0.0) {
                    return Err("--capacity-factor must be a positive number".into());
                }
                args.capacity_factor = Some(f);
            }
            "--out" => args.out = Some(value()?),
            "--placement" => args.placement = Some(value()?),
            "--candidates" => args.candidates = parse_count(flag, &value()?, 1..=1024)? as usize,
            "--epochs" => args.epochs = parse_count(flag, &value()?, 1..=1_000_000)?,
            "--queries-per-epoch" => {
                args.queries_per_epoch = parse_count(flag, &value()?, 1..=10_000_000)? as usize;
            }
            "--drift-sigma" => args.drift_sigma = parse_nonnegative(flag, &value()?)?,
            "--queries" => args.queries = parse_count(flag, &value()?, 1..=10_000_000)? as usize,
            "--inflight" => args.inflight = parse_count(flag, &value()?, 1..=10_000_000)? as usize,
            "--drop-nodes" => args.drop_nodes = parse_count(flag, &value()?, 0..=1024)? as usize,
            "--migration-budget" => {
                args.migration_budget = parse_count(flag, &value()?, 1..=u64::MAX)?;
            }
            "--warm-drift" => args.warm_drift = parse_count(flag, &value()?, 0..=1_000_000)?,
            "--replicas" => args.replicas = parse_count(flag, &value()?, 1..=64)? as usize,
            "--domains" => args.domains = Some(value()?),
            "--drift-epochs" => {
                let v = value()?;
                args.drift_epochs = if v == "all" {
                    None
                } else {
                    Some(v.parse().map_err(|e| format!("--drift-epochs: {e}"))?)
                };
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(args)
}

fn trace_config(args: &Args) -> Result<TraceConfig, String> {
    match args.preset.as_str() {
        "small" => Ok(TraceConfig::small()),
        "paper" => Ok(TraceConfig::paper_scaled()),
        "tiny" => Ok(TraceConfig::tiny()),
        other => Err(format!("unknown preset {other} (small|paper|tiny)")),
    }
}

fn build_pipeline(args: &Args) -> Result<Pipeline, String> {
    let mut config = PipelineConfig::new(trace_config(args)?, args.nodes);
    config.seed = args.seed;
    if let Some(f) = args.capacity_factor {
        config.capacity_factor = f;
    }
    eprintln!(
        "building {} workload (seed {}, {} nodes)...",
        args.preset, args.seed, args.nodes
    );
    let mut p = Pipeline::build(&config);
    if let Some(n) = args.shards {
        // Bulk cost evaluation (rounding ranking, migrate/repair
        // scoring, probe candidate scoring via the scoped
        // subproblem) runs shard-parallel, for every subcommand. At one
        // shard its bits are the unsharded run's. The presets' weights are
        // not dyadic, so with more shards a cost can differ from the flat
        // fold in its last bits (DESIGN.md §11).
        p.problem.set_sharding(n, args.threads());
    }
    Ok(p)
}

/// Parses and validates the replication spec against `--nodes`: the
/// `--domains` tree (flat when omitted) with `--replicas` copies spread
/// across it. `--replicas 0` is already rejected at parse time by
/// [`parse_count`]; a replica count exceeding the leaf-domain count
/// surfaces the typed [`cca::algo::ProblemError::ReplicaSpread`] here —
/// both are usage errors (exit 1).
fn replica_spec(args: &Args) -> Result<DomainTree, String> {
    let tree = match &args.domains {
        None => DomainTree::flat(args.nodes),
        Some(spec) => {
            DomainTree::parse(spec, args.nodes).map_err(|e| format!("--domains: {e}"))?
        }
    };
    validate_replica_spec(args.replicas, &tree).map_err(|e| format!("--replicas: {e}"))?;
    Ok(tree)
}

fn strategy(name: &str, threads: usize) -> Result<Strategy, String> {
    match name {
        "random" | "random-hash" => Ok(Strategy::RandomHash),
        "greedy" => Ok(Strategy::Greedy),
        "lprr" => Ok(Strategy::lprr_threads(threads)),
        other => Err(format!("unknown strategy {other} (random|greedy|lprr)")),
    }
}

fn cmd_workload(args: &Args) -> Result<(), String> {
    let p = build_pipeline(args)?;
    println!("documents:         {}", p.workload.corpus.len());
    println!("indexed keywords:  {}", p.index.num_keywords());
    println!("total index bytes: {}", p.index.total_bytes());
    print!(
        "{}",
        cca::trace::WorkloadSummary::of(&p.workload.queries, 200).report()
    );
    println!("problem pairs:        {}", p.problem.pairs().len());
    println!("node capacity:        {} bytes", p.problem.capacity(0));
    if let Some(path) = &args.out {
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        cca::trace::write_query_log(&mut file, &p.workload.queries)
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote query log to {path}");
    }
    Ok(())
}

fn cmd_evaluate(args: &Args) -> Result<(), String> {
    let p = build_pipeline(args)?;
    let base = p
        .evaluate(&Strategy::RandomHash, None)
        .map_err(|e| e.to_string())?;
    println!(
        "{:<12} {:>16} {:>10} {:>12} {:>10} {:>10}",
        "strategy", "bytes moved", "vs random", "local frac", "storage", "traffic"
    );
    println!(
        "{:<12} {:>16} {:>10} {:>12} {:>10} {:>10}",
        "", "", "", "", "imbalance", "imbalance"
    );
    for (name, s, scope) in [
        ("random-hash", Strategy::RandomHash, None),
        ("greedy", Strategy::Greedy, args.scope),
        ("lprr", Strategy::lprr_threads(args.threads()), args.scope),
    ] {
        let eval = p.evaluate(&s, scope).map_err(|e| e.to_string())?;
        println!(
            "{:<12} {:>16} {:>9.1}% {:>12.3} {:>10.2} {:>10.2}",
            name,
            eval.replay.total_bytes,
            100.0 * eval.replay.total_bytes as f64 / base.replay.total_bytes as f64,
            eval.replay.local_fraction(),
            eval.imbalance,
            eval.replay.traffic_imbalance()
        );
    }
    Ok(())
}

fn print_loads(problem: &cca::algo::CcaProblem, placement: &cca::algo::Placement) {
    let loads = placement.loads(problem);
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    println!("per-node loads (bytes; mean {mean:.0}):");
    for (k, load) in loads.iter().enumerate() {
        println!("  node {k:>3}: {load:>12} ({:.2}x mean)", *load as f64 / mean);
    }
}

/// Writes `text` to `path` and says so on stderr.
fn save(path: &str, text: &str, label: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {label} to {path}");
    Ok(())
}

/// The shared tail of every report-producing arm: the machine report on
/// stdout, the human summary on stderr, and an optional `--out` copy.
fn emit_report(text: &str, summary: &str, out: Option<&str>, label: &str) -> Result<(), String> {
    print!("{text}");
    eprint!("{summary}");
    match out {
        Some(path) => save(path, text, label),
        None => Ok(()),
    }
}

/// The repo-wide exit taxonomy (module docs): 3 when the outcome is
/// infeasible, 2 when it completed degraded, 0 otherwise.
fn exit_taxonomy(infeasible: bool, degraded: bool) -> ExitCode {
    if infeasible {
        ExitCode::from(3)
    } else if degraded {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_place(args: &Args) -> Result<ExitCode, String> {
    let tree = replica_spec(args)?;
    if args.replicas > 1 {
        return cmd_place_replicated(args, &tree);
    }
    if args.deadline_ms.is_some() || args.min_strategy.is_some() {
        return cmd_place_resilient(args);
    }
    let p = build_pipeline(args)?;
    let s = strategy(&args.strategy, args.threads())?;
    let report = p.place(&s, args.scope).map_err(|e| e.to_string())?;
    println!("strategy:   {}", report.strategy);
    println!("model cost: {:.2}", report.cost);
    let audit = cca::algo::audit_placement(&p.problem, &report.placement, 5);
    print!("{}", audit.report());
    print_loads(&p.problem, &report.placement);
    if let Some(path) = &args.out {
        save(path, &format_placement(&p.problem, &report.placement), "placement")?;
    }
    Ok(exit_taxonomy(!audit.feasible(), false))
}

fn cmd_place_resilient(args: &Args) -> Result<ExitCode, String> {
    let start = Rung::parse(&args.strategy)
        .ok_or_else(|| format!("unknown strategy {} (lprr|partial-lprr|greedy|hash)", args.strategy))?;
    let floor = match &args.min_strategy {
        None => Rung::Hash,
        Some(s) => Rung::parse(s)
            .ok_or_else(|| format!("unknown min-strategy {s} (lprr|partial-lprr|greedy|hash)"))?,
    };
    if floor < start {
        return Err(format!(
            "--min-strategy {floor} is a better rung than --strategy {start}; \
             the floor must be the same rung or a worse one"
        ));
    }
    let p = build_pipeline(args)?;
    let options = ResilienceOptions {
        budget: SolveBudget {
            deadline: args.deadline_ms.map(Duration::from_millis),
            ..SolveBudget::default()
        },
        start,
        floor,
        partial_scope: args.scope,
        threads: args.threads(),
        ..ResilienceOptions::default()
    };
    let r = p.place_resilient(&options);
    println!("strategy:   {} (resilient)", r.report.selected);
    println!("model cost: {:.2}", r.cost);
    print!("{}", r.report.summary());
    print!("{}", r.audit.report());
    print_loads(&r.effective_problem, &r.placement);
    if let Some(path) = &args.out {
        save(path, &format_placement(&r.effective_problem, &r.placement), "placement")?;
    }
    Ok(exit_taxonomy(!r.audit.feasible(), r.report.degraded))
}

/// `cca place --replicas R`: replica-aware placement through the same
/// degradation ladder as the resilient path. The primary column comes
/// from the ladder; the extra copies spread deterministically across
/// distinct leaf domains of `--domains`. Saved placements use the
/// `# cca-placement v2` format.
fn cmd_place_replicated(args: &Args, tree: &DomainTree) -> Result<ExitCode, String> {
    let start = Rung::parse(&args.strategy).ok_or_else(|| {
        format!(
            "unknown strategy {} (lprr|partial-lprr|greedy|hash)",
            args.strategy
        )
    })?;
    let floor = match &args.min_strategy {
        None => Rung::Hash,
        Some(s) => Rung::parse(s)
            .ok_or_else(|| format!("unknown min-strategy {s} (lprr|partial-lprr|greedy|hash)"))?,
    };
    let p = build_pipeline(args)?;
    let options = ResilienceOptions {
        budget: SolveBudget {
            deadline: args.deadline_ms.map(Duration::from_millis),
            ..SolveBudget::default()
        },
        start,
        floor,
        partial_scope: args.scope,
        threads: args.threads(),
        ..ResilienceOptions::default()
    };
    let r = solve_resilient_replicated(
        &p.problem,
        &options,
        &FaultPlan::default(),
        tree,
        args.replicas,
    )
    .map_err(|e| e.to_string())?;
    println!("strategy:   {} (replicated x{})", r.base.report.selected, args.replicas);
    println!("model cost: {:.2}", r.cost);
    println!(
        "replicas:   {} copies across {} leaf domains (spread valid: {})",
        args.replicas,
        tree.num_domains(),
        r.spread_valid
    );
    print!("{}", r.base.report.summary());
    print!("{}", r.base.audit.report());
    let loads = r.replica.replica_loads(&r.base.effective_problem);
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    println!("per-node copy-inclusive loads (bytes; mean {mean:.0}):");
    for (k, load) in loads.iter().enumerate() {
        println!("  node {k:>3}: {load:>12} ({:.2}x mean)", *load as f64 / mean);
    }
    if let Some(path) = &args.out {
        let text = format_replica_placement(&r.base.effective_problem, &r.replica);
        save(path, &text, "replica placement")?;
    }
    Ok(exit_taxonomy(
        !r.base.audit.feasible() || !r.spread_valid,
        r.base.report.degraded,
    ))
}

/// `cca probe`: LP-relax once, round `--candidates` placements from the
/// same fractional solution, rank all of them with **one** batched probe
/// over the query log ([`Pipeline::probe_batch`]), and keep the candidate
/// that ships the fewest bytes. Ties break by model cost, then by
/// candidate index, so the winner is deterministic for a fixed seed.
fn cmd_probe(args: &Args) -> Result<ExitCode, String> {
    let tree = replica_spec(args)?;
    let p = build_pipeline(args)?;
    let threads = args.threads();
    let scope_size = args
        .scope
        .unwrap_or(p.problem.num_objects())
        .min(p.problem.num_objects());
    let scope: Vec<ObjectId> = importance_ranking(&p.problem)
        .into_iter()
        .take(scope_size)
        .collect();
    let sub = scope_subproblem(&p.problem, &scope, false);
    eprintln!(
        "relaxing {} objects on {} nodes...",
        sub.num_objects(),
        sub.num_nodes()
    );
    let seed_placement = greedy_placement(&sub);
    let outcome = solve_relaxation(&sub, Some(&seed_placement), &RelaxOptions::default())
        .map_err(|e| e.to_string())?;
    let (samples, model_costs) =
        round_samples_scored(&outcome.fractional, &sub, args.candidates, args.seed, threads)
            .map_err(|e| e.to_string())?;
    let full: Vec<cca::algo::Placement> = samples
        .iter()
        .map(|s| compose_with_hashed_rest(&p.problem, &scope, s))
        .collect();
    let probed = p.probe_batch(&full);
    println!("{:>9} {:>16} {:>16}", "candidate", "model cost", "probe bytes");
    let mut best: usize = 0;
    for (i, (&bytes, &cost)) in probed.iter().zip(&model_costs).enumerate() {
        println!("{i:>9} {cost:>16.2} {bytes:>16}");
        let better = (bytes, cost) < (probed[best], model_costs[best]);
        if better {
            best = i;
        }
    }
    println!(
        "selected:   candidate {best} ({} probed bytes)",
        probed[best]
    );
    let placement = full.into_iter().nth(best).expect("candidates >= 1");
    let audit = cca::algo::audit_placement(&p.problem, &placement, 5);
    print!("{}", audit.report());
    if args.replicas > 1 {
        // The probe ranks single-copy candidates; the extra copies of
        // the winner spread deterministically afterwards.
        let rp = spread_copies(
            &p.problem,
            &tree,
            placement,
            args.replicas,
            args.replicas as f64,
        )
        .map_err(|e| e.to_string())?;
        println!(
            "replicas:   {} copies across {} leaf domains (spread valid: {})",
            args.replicas,
            tree.num_domains(),
            rp.spread_valid(&tree)
        );
        if let Some(path) = &args.out {
            save(path, &format_replica_placement(&p.problem, &rp), "replica placement")?;
        }
        return Ok(exit_taxonomy(!audit.feasible(), false));
    }
    if let Some(path) = &args.out {
        save(path, &format_placement(&p.problem, &placement), "placement")?;
    }
    Ok(exit_taxonomy(!audit.feasible(), false))
}

/// `cca run`: the online drift-driven re-optimization loop (DESIGN.md
/// §12). Builds the pipeline, places greedily, then runs `--epochs`
/// controller epochs of drifting traffic with cost/benefit-gated scoped
/// migrations, optionally injecting `--drop-nodes` seeded node losses.
/// Stdout is exactly the serialized `ControllerReport` (byte-identical
/// for a fixed seed across any `--threads`/`--shards`, absent
/// `--deadline-ms`); the human summary goes to stderr.
fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let tree = replica_spec(args)?;
    let p = build_pipeline(args)?;
    let controller = ControllerConfig {
        threads: args.threads(),
        shards: args.shards.unwrap_or(0),
        budget: SolveBudget {
            deadline: args.deadline_ms.map(Duration::from_millis),
            ..SolveBudget::default()
        },
        // `--domains` upgrades the robustness gate to probe whole-domain
        // loss; absent the flag the probe is the exact historic
        // heaviest-node check.
        domains: args.domains.as_ref().map(|_| tree.clone()),
        ..ControllerConfig::default()
    };
    let config = OnlineConfig {
        epochs: args.epochs,
        queries_per_epoch: args.queries_per_epoch,
        drift_sigma: args.drift_sigma,
        seed: args.seed,
        faults: FaultPlan {
            drop_nodes: args.drop_nodes,
            seed: args.seed ^ 0xfa01_7000,
            ..FaultPlan::default()
        },
        controller,
    };
    eprintln!(
        "running {} epochs x {} queries (drift sigma {}, {} node losses)...",
        config.epochs, config.queries_per_epoch, config.drift_sigma, args.drop_nodes
    );
    let outcome = run_online(&p, &config);
    let text = format_report(&outcome.report);
    let mut summary = outcome.report.summary();
    if args.replicas > 1 {
        // The controller optimizes the primary column; the extra copies
        // of the final placement spread deterministically afterwards
        // (stderr only — the stdout report stays byte-identical).
        let rp = spread_copies(
            &outcome.problem,
            &tree,
            outcome.placement.clone(),
            args.replicas,
            args.replicas as f64,
        )
        .map_err(|e| e.to_string())?;
        summary.push_str(&format!(
            "final placement replicated x{} across {} leaf domains (spread valid: {})\n",
            args.replicas,
            tree.num_domains(),
            rp.spread_valid(&tree)
        ));
    }
    emit_report(&text, &summary, args.out.as_deref(), "controller report")?;
    Ok(exit_taxonomy(
        !outcome.report.final_feasible,
        outcome.report.degraded(),
    ))
}

/// `cca serve`: the serving front (DESIGN.md §13). Places greedily,
/// samples a fresh `--queries`-long stream from the workload's query
/// model (a seed distinct from the training log, so serving is measured
/// on unseen traffic), and serves it in batched admission windows of
/// `--inflight` queries. Stdout is exactly the serialized
/// `# cca-serving-report v1` — byte-identical for a fixed seed across
/// any `--threads`, `--shards` and `--inflight`; the human summary and
/// wall-clock throughput go to stderr.
fn cmd_serve(args: &Args) -> Result<ExitCode, String> {
    let tree = replica_spec(args)?;
    let p = build_pipeline(args)?;
    let placement = greedy_placement(&p.problem);
    let audit = cca::algo::audit_placement(&p.problem, &placement, 5);
    // With one copy this is exactly `cluster_for` (the report is
    // byte-identical to pre-replication builds); with more, reads route
    // to the cheapest replica.
    let cluster = if args.replicas > 1 {
        let rp = spread_copies(
            &p.problem,
            &tree,
            placement.clone(),
            args.replicas,
            args.replicas as f64,
        )
        .map_err(|e| e.to_string())?;
        eprintln!(
            "replicating {} copies across {} leaf domains (spread valid: {})",
            args.replicas,
            tree.num_domains(),
            rp.spread_valid(&tree)
        );
        p.cluster_for_replicas(&rp)
    } else {
        p.cluster_for(&placement)
    };
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5e12_7e00);
    let stream = p.workload.model.sample_log(args.queries, &mut rng);
    let config = ServeConfig {
        inflight: args.inflight,
        threads: args.threads(),
        deadline_ms: args.deadline_ms,
        burst: None,
        overhead_ns: 0,
    };
    eprintln!(
        "serving {} queries (inflight {}, {} threads)...",
        args.queries, args.inflight, config.threads
    );
    let start = std::time::Instant::now();
    let outcome = serve(
        &p.index,
        &cluster,
        p.config().aggregation,
        &stream.queries,
        &config,
    );
    let elapsed = start.elapsed();
    let text = format_report(&outcome.report);
    let mut summary = outcome.report.summary();
    summary.push_str(&format!(
        "{} batches (max {}), {:.0} queries/s wall-clock\n",
        outcome.batches,
        outcome.max_batch,
        args.queries as f64 / elapsed.as_secs_f64().max(1e-9)
    ));
    emit_report(&text, &summary, args.out.as_deref(), "serving report")?;
    Ok(exit_taxonomy(
        !audit.feasible(),
        outcome.report.degraded(),
    ))
}

/// `cca live`: the live re-optimizing runtime (DESIGN.md §14). Places
/// greedily, optionally applies `--warm-drift` regime-shift steps to the
/// query model, then drives `--epochs` epochs in which the admitted
/// serving stream feeds the controller's estimates and accepted
/// migrations ship as `--migration-budget`-bounded slices between
/// serving windows. Stdout is exactly the serialized
/// `# cca-live-report v1` — byte-identical for a fixed seed across any
/// `--threads`, `--shards` and `--inflight`; the human summary goes to
/// stderr. `--deadline-ms` here is the per-query serving budget (the
/// controller's solves stay un-deadlined, keeping the run
/// deterministic).
fn cmd_live(args: &Args) -> Result<ExitCode, String> {
    let tree = replica_spec(args)?;
    let p = build_pipeline(args)?;
    let controller = ControllerConfig {
        threads: args.threads(),
        shards: args.shards.unwrap_or(0),
        // A bounded replay amortizes migrations over the run itself: a
        // move is worthwhile iff it pays for its bytes within the epochs
        // this run will actually serve.
        horizon_epochs: args.epochs,
        // `--domains` upgrades the robustness gate to probe whole-domain
        // loss; absent the flag the probe is the exact historic
        // heaviest-node check.
        domains: args.domains.as_ref().map(|_| tree.clone()),
        ..ControllerConfig::default()
    };
    let config = LiveConfig {
        epochs: args.epochs,
        queries_per_epoch: args.queries_per_epoch,
        drift_sigma: args.drift_sigma,
        drift_epochs: args.drift_epochs,
        warm_drift_steps: args.warm_drift,
        seed: args.seed,
        inflight: args.inflight,
        threads: args.threads(),
        deadline_ms: args.deadline_ms,
        migration_budget: args.migration_budget,
        replicas: args.replicas,
        domains: args.domains.as_ref().map(|_| tree.clone()),
        controller,
    };
    eprintln!(
        "running {} live epochs x {} queries (warm drift {}, sigma {}, budget {} B/epoch)...",
        config.epochs,
        config.queries_per_epoch,
        config.warm_drift_steps,
        config.drift_sigma,
        config.migration_budget
    );
    let outcome = run_live(&p, &config);
    let text = format_report(&outcome.report);
    emit_report(
        &text,
        &outcome.report.summary(),
        args.out.as_deref(),
        "live report",
    )?;
    Ok(exit_taxonomy(
        !outcome.report.final_feasible,
        outcome.report.degraded(),
    ))
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let path = args
        .placement
        .as_ref()
        .ok_or("replay needs --placement FILE")?;
    let p = build_pipeline(args)?;
    let file = std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    let placement =
        cca::algo::read_placement(file, &p.problem).map_err(|e| format!("{path}: {e}"))?;
    let stats = p.replay(&placement);
    let base = p
        .evaluate(&Strategy::RandomHash, None)
        .map_err(|e| e.to_string())?;
    println!("bytes moved:   {}", stats.total_bytes);
    println!(
        "vs random:     {:.1}%",
        100.0 * stats.total_bytes as f64 / base.replay.total_bytes as f64
    );
    println!("local queries: {:.3}", stats.local_fraction());
    Ok(())
}

fn cmd_export_lp(args: &Args) -> Result<(), String> {
    let p = build_pipeline(args)?;
    let scope = args.scope.unwrap_or(p.problem.num_objects());
    let ranking = importance_ranking(&p.problem);
    let keep: Vec<_> = ranking.into_iter().take(scope).collect();
    let sub = scope_subproblem(&p.problem, &keep, false);
    eprintln!(
        "building Figure-4 LP for {} objects, {} pairs, {} nodes...",
        sub.num_objects(),
        sub.pairs().len(),
        sub.num_nodes()
    );
    let lp = Figure4Lp::build(&sub);
    let text = cca::lp::write_lp(&lp.model);
    match &args.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {} bytes to {path}", text.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "workload" => cmd_workload(&args).map(|()| ExitCode::SUCCESS),
        "evaluate" => cmd_evaluate(&args).map(|()| ExitCode::SUCCESS),
        "place" => cmd_place(&args),
        "probe" => cmd_probe(&args),
        "run" => cmd_run(&args),
        "serve" => cmd_serve(&args),
        "live" => cmd_live(&args),
        "replay" => cmd_replay(&args).map(|()| ExitCode::SUCCESS),
        "export-lp" => cmd_export_lp(&args).map(|()| ExitCode::SUCCESS),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
