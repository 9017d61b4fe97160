//! Integration tests driving the `cca` binary end to end.

use std::process::Command;

fn cca() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cca"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let output = cca().args(args).output().expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Like [`run`], but returns the numeric exit code (the resilient `place`
/// path uses 0 = ok, 2 = degraded, 3 = infeasible).
fn run_code(args: &[&str]) -> (i32, String, String) {
    let output = cca().args(args).output().expect("binary runs");
    (
        output.status.code().expect("no signal"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("usage: cca"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("usage: cca"));
}

#[test]
fn bad_option_fails() {
    let (ok, _, stderr) = run(&["workload", "--bogus", "1"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option"));

    let (ok, _, stderr) = run(&["workload", "--seed"]);
    assert!(!ok);
    assert!(stderr.contains("needs a value"));

    let (ok, _, stderr) = run(&["workload", "--preset", "gigantic"]);
    assert!(!ok);
    assert!(stderr.contains("unknown preset"));
}

#[test]
fn workload_reports_statistics() {
    let (ok, stdout, _) = run(&["workload", "--preset", "tiny", "--seed", "7"]);
    assert!(ok, "stdout: {stdout}");
    for needle in [
        "documents:",
        "indexed keywords:",
        "mean query length:",
        "problem pairs:",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in {stdout}");
    }
}

#[test]
fn evaluate_shows_all_strategies() {
    let (ok, stdout, _) = run(&[
        "evaluate", "--preset", "tiny", "--nodes", "4", "--scope", "50",
    ]);
    assert!(ok, "stdout: {stdout}");
    for needle in ["random-hash", "greedy", "lprr", "100.0%"] {
        assert!(stdout.contains(needle), "missing {needle} in {stdout}");
    }
}

#[test]
fn place_save_then_replay_round_trips() {
    let dir = std::env::temp_dir().join(format!("cca-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("placement.tsv");
    let path_str = path.to_str().expect("utf-8 path");

    let (ok, stdout, stderr) = run(&[
        "place", "--preset", "tiny", "--nodes", "3", "--scope", "40", "--strategy", "greedy",
        "--out", path_str,
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("per-node loads"));
    let saved = std::fs::read_to_string(&path).expect("placement file written");
    assert!(saved.starts_with("# cca-placement v1"));

    let (ok, stdout, stderr) = run(&[
        "replay", "--preset", "tiny", "--nodes", "3", "--placement", path_str,
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("bytes moved:"));
    assert!(stdout.contains("vs random:"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_rejects_a_placement_for_another_node_count() {
    let dir = std::env::temp_dir().join(format!("cca-cli-nodes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("placement.tsv");
    let path_str = path.to_str().expect("utf-8 path");
    let (ok, stdout, stderr) = run(&[
        "place",
        "--preset",
        "tiny",
        "--nodes",
        "4",
        "--strategy",
        "greedy",
        "--out",
        path_str,
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");

    // Claim 64 nodes and put the first object on node 50: every entry is
    // in range of the header, none of the 4-node problem.
    let saved = std::fs::read_to_string(&path).expect("placement file written");
    let mut lines: Vec<String> = saved.lines().map(str::to_owned).collect();
    lines[0] = lines[0].replace("nodes=4", "nodes=64");
    let (name, _) = lines[1].rsplit_once('\t').expect("name<TAB>node");
    lines[1] = format!("{name}\t50");
    std::fs::write(&path, lines.join("\n") + "\n").expect("rewrite placement");

    let (code, _, stderr) = run_code(&[
        "replay",
        "--preset",
        "tiny",
        "--nodes",
        "4",
        "--placement",
        path_str,
    ]);
    assert_eq!(code, 1, "stderr: {stderr}");
    assert!(
        stderr.contains("line 1: placement has 64 nodes but the problem has 4"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resilient_place_with_generous_deadline_succeeds() {
    let (code, stdout, stderr) = run_code(&[
        "place", "--preset", "tiny", "--nodes", "3", "--deadline-ms", "60000",
    ]);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("degradation ladder"));
    assert!(stdout.contains("selected: lprr"));
    assert!(stdout.contains("per-node loads"));
}

#[test]
fn resilient_place_with_zero_deadline_degrades_to_hash() {
    let (code, stdout, _) = run_code(&[
        "place", "--preset", "tiny", "--nodes", "3", "--deadline-ms", "0",
    ]);
    assert_eq!(code, 2, "stdout: {stdout}");
    assert!(stdout.contains("selected: hash (degraded)"));
    assert!(stdout.contains("deadline exceeded"));
}

/// The determinism contract at the CLI surface: `place` prints the same
/// report (placement summary, cost, loads) for any `--threads` value.
#[test]
fn place_output_is_identical_across_thread_counts() {
    let base = [
        "place", "--preset", "tiny", "--nodes", "3", "--scope", "40", "--strategy", "lprr",
        "--seed", "11",
    ];
    let mut outputs = Vec::new();
    for threads in ["1", "2", "8"] {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--threads", threads]);
        let (code, stdout, stderr) = run_code(&args);
        assert!(
            code == 0 || code == 2,
            "threads {threads}: code {code}\nstdout: {stdout}\nstderr: {stderr}"
        );
        outputs.push((code, stdout));
    }
    let (code0, ref out0) = outputs[0];
    for (i, (code, out)) in outputs.iter().enumerate().skip(1) {
        assert_eq!(*code, code0, "exit code changed with thread count");
        assert_eq!(out, out0, "--threads {} changed the report", ["1", "2", "8"][i]);
    }
}

/// The exit-code taxonomy (0 ok / 2 degraded / 3 infeasible) is
/// unaffected by the thread count.
#[test]
fn exit_codes_hold_at_every_thread_count() {
    for threads in ["1", "2", "8"] {
        // Generous deadline: the LPRR rung wins cleanly.
        let (code, stdout, stderr) = run_code(&[
            "place", "--preset", "tiny", "--nodes", "3", "--deadline-ms", "60000",
            "--threads", threads,
        ]);
        assert_eq!(code, 0, "threads {threads}\nstdout: {stdout}\nstderr: {stderr}");
        assert!(stdout.contains("selected: lprr"));

        // Expired deadline: degraded to hash, code 2, on every worker count.
        let (code, stdout, _) = run_code(&[
            "place", "--preset", "tiny", "--nodes", "3", "--deadline-ms", "0",
            "--threads", threads,
        ]);
        assert_eq!(code, 2, "threads {threads}\nstdout: {stdout}");
        assert!(stdout.contains("selected: hash (degraded)"));
        assert!(stdout.contains("deadline exceeded"));

        // Starved capacities: no rung can fit the objects, so the audit
        // reports violations and the exit code is 3 — again regardless of
        // the worker count.
        let (code, stdout, _) = run_code(&[
            "place", "--preset", "tiny", "--nodes", "3", "--deadline-ms", "60000",
            "--capacity-factor", "0.4", "--threads", threads,
        ]);
        assert_eq!(code, 3, "threads {threads}\nstdout: {stdout}");
        assert!(stdout.contains("VIOLATION"), "stdout: {stdout}");
    }
}

#[test]
fn capacity_factor_option_validates() {
    let (code, _, stderr) = run_code(&["place", "--preset", "tiny", "--capacity-factor", "-1"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--capacity-factor must be a positive number"));
}

#[test]
fn threads_option_rejects_zero() {
    let (code, _, stderr) = run_code(&["place", "--preset", "tiny", "--threads", "0"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--threads must be at least 1"), "stderr: {stderr}");
}

#[test]
fn shards_option_rejects_zero() {
    let (code, _, stderr) = run_code(&["place", "--preset", "tiny", "--shards", "0"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--shards must be at least 1"), "stderr: {stderr}");
}

/// The sharded-graph determinism contract at the CLI surface: with a
/// fixed `--shards` count the `place` report is byte-identical for any
/// `--threads` value, and `--shards 1` is byte-identical to running with
/// no sharding at all.
#[test]
fn sharded_place_is_identical_across_thread_counts_and_to_flat() {
    let base = [
        "place", "--preset", "tiny", "--nodes", "3", "--scope", "40", "--strategy", "lprr",
        "--seed", "11",
    ];
    let flat = {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--threads", "1"]);
        run_code(&args)
    };
    assert!(flat.0 == 0 || flat.0 == 3, "flat run: code {}\n{}", flat.0, flat.1);
    // --shards 1 ≡ no flag, to the byte.
    let single = {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--threads", "1", "--shards", "1"]);
        run_code(&args)
    };
    assert_eq!(single.0, flat.0, "--shards 1 changed the exit code");
    assert_eq!(single.1, flat.1, "--shards 1 changed the report");
    // Fixed shard count, swept thread counts: byte-identical reports —
    // and identical to the flat run (dyadic workload weights make every
    // shard reduction exact).
    for shards in ["2", "7"] {
        for threads in ["1", "2", "8"] {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--threads", threads, "--shards", shards]);
            let (code, stdout, stderr) = run_code(&args);
            assert_eq!(
                code, flat.0,
                "shards {shards} threads {threads}: exit code changed\nstderr: {stderr}"
            );
            assert_eq!(
                stdout, flat.1,
                "shards {shards} threads {threads}: report changed"
            );
        }
    }
}

/// The exit-code taxonomy (0 ok / 2 degraded / 3 infeasible) holds
/// under sharded evaluation.
#[test]
fn exit_codes_hold_under_sharding() {
    // Generous deadline: the LPRR rung wins cleanly.
    let (code, stdout, stderr) = run_code(&[
        "place", "--preset", "tiny", "--nodes", "3", "--deadline-ms", "60000",
        "--threads", "2", "--shards", "2",
    ]);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("selected: lprr"));

    // Expired deadline: degraded to hash, code 2.
    let (code, stdout, _) = run_code(&[
        "place", "--preset", "tiny", "--nodes", "3", "--deadline-ms", "0",
        "--threads", "2", "--shards", "2",
    ]);
    assert_eq!(code, 2, "stdout: {stdout}");
    assert!(stdout.contains("selected: hash (degraded)"));

    // Starved capacities: infeasible everywhere, code 3.
    let (code, stdout, _) = run_code(&[
        "place", "--preset", "tiny", "--nodes", "3", "--deadline-ms", "60000",
        "--capacity-factor", "0.4", "--threads", "2", "--shards", "2",
    ]);
    assert_eq!(code, 3, "stdout: {stdout}");
    assert!(stdout.contains("VIOLATION"), "stdout: {stdout}");
}

/// `probe` accepts `--shards` (candidate scoring runs on the sharded
/// subproblem via scope restriction) and stays deterministic.
#[test]
fn sharded_probe_matches_flat_probe() {
    let base = [
        "probe", "--preset", "tiny", "--nodes", "3", "--scope", "30", "--candidates", "4",
        "--seed", "5", "--threads", "2",
    ];
    let flat = run_code(&base);
    assert!(flat.0 == 0 || flat.0 == 3, "probe: code {}\n{}", flat.0, flat.1);
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--shards", "3"]);
    let sharded = run_code(&args);
    assert_eq!(sharded.0, flat.0, "--shards changed the probe exit code");
    assert_eq!(sharded.1, flat.1, "--shards changed the probe report");
}

#[test]
fn resilient_place_validates_rung_names() {
    let (code, _, stderr) = run_code(&[
        "place", "--preset", "tiny", "--min-strategy", "telepathy",
    ]);
    assert_eq!(code, 1);
    assert!(stderr.contains("unknown min-strategy"));

    // A floor better than the start strategy is rejected.
    let (code, _, stderr) = run_code(&[
        "place", "--preset", "tiny", "--strategy", "greedy", "--min-strategy", "lprr",
    ]);
    assert_eq!(code, 1);
    assert!(stderr.contains("better rung"));
}

/// `probe --candidates` taxonomy: the bounds 1..=1024 are enforced at
/// parse time (exit 1, nothing built), valid widths run end to end, and
/// the 0-ok / 3-infeasible audit semantics match `place`.
#[test]
fn probe_candidates_option_validates_and_probes() {
    for bad in ["0", "1025", "-1", "many"] {
        let (code, _, stderr) = run_code(&["probe", "--preset", "tiny", "--candidates", bad]);
        assert_eq!(code, 1, "--candidates {bad} must be a usage error");
        assert!(
            stderr.contains("--candidates"),
            "--candidates {bad}: stderr: {stderr}"
        );
        assert!(
            !stderr.contains("building"),
            "--candidates {bad} must fail before the pipeline is built"
        );
    }

    // Boundary widths both run; generous capacity keeps the audit clean.
    for k in ["1", "3"] {
        let (code, stdout, stderr) = run_code(&[
            "probe", "--preset", "tiny", "--scope", "40", "--capacity-factor", "8",
            "--candidates", k,
        ]);
        assert_eq!(code, 0, "k = {k}\nstdout: {stdout}\nstderr: {stderr}");
        assert!(stdout.contains("probe bytes"), "stdout: {stdout}");
        assert!(stdout.contains("selected:   candidate"), "stdout: {stdout}");
    }

    // Tight capacities: the LP stays feasible but probe does not repair
    // its rounded candidates, so the winner fails the audit — exit 3, the
    // same taxonomy slot `place` uses for infeasible placements. (An
    // infeasible *relaxation* is an ordinary error: exit 1.)
    let (code, stdout, _) = run_code(&[
        "probe", "--preset", "tiny", "--scope", "50", "--candidates", "4",
    ]);
    assert_eq!(code, 3, "stdout: {stdout}");
    assert!(stdout.contains("VIOLATION"), "stdout: {stdout}");
    let (code, _, stderr) = run_code(&[
        "probe", "--preset", "tiny", "--scope", "40", "--capacity-factor", "0.4",
        "--candidates", "2",
    ]);
    assert_eq!(code, 1, "stderr: {stderr}");
}

/// The probed-bytes ranking is deterministic: the same seed prints the
/// same table and selects the same candidate for every thread count.
#[test]
fn probe_report_is_identical_across_thread_counts() {
    let base = [
        "probe", "--preset", "tiny", "--scope", "40", "--capacity-factor", "8",
        "--candidates", "4", "--seed", "11",
    ];
    let mut outputs = Vec::new();
    for threads in ["1", "2", "8"] {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--threads", threads]);
        let (code, stdout, stderr) = run_code(&args);
        assert_eq!(code, 0, "threads {threads}\nstdout: {stdout}\nstderr: {stderr}");
        outputs.push(stdout);
    }
    for (i, out) in outputs.iter().enumerate().skip(1) {
        assert_eq!(
            out, &outputs[0],
            "--threads {} changed the probe report",
            ["1", "2", "8"][i]
        );
    }
}

#[test]
fn export_lp_emits_parseable_lp() {
    let (ok, stdout, _) = run(&[
        "export-lp", "--preset", "tiny", "--nodes", "2", "--scope", "6",
    ]);
    assert!(ok);
    assert!(stdout.contains("Minimize"));
    assert!(stdout.contains("Subject To"));
    // The emitted text must round-trip through our own parser.
    let model = cca::lp::parse_lp(&stdout).expect("parseable LP");
    assert!(model.num_vars() > 0);
    assert!(model.num_constraints() > 0);
}

/// `run` exit taxonomy: 0 for a clean drift-tracking run, 2 once chaos
/// drops a node (repaired, but the run is marked degraded).
#[test]
fn online_run_exit_taxonomy_and_report_shape() {
    let (code, stdout, stderr) = run_code(&[
        "run", "--preset", "tiny", "--nodes", "4", "--epochs", "60", "--seed", "11",
    ]);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.starts_with("# cca-controller-report v1"), "stdout: {stdout}");
    for needle in [
        "epochs\t60",
        "evaluated\t",
        "migrations\t",
        "rejected_not_worthwhile\t",
        "rejected_not_robust\t",
        "final_feasible\ttrue",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in {stdout}");
    }

    let (code, stdout, stderr) = run_code(&[
        "run", "--preset", "tiny", "--nodes", "4", "--epochs", "60", "--seed", "11",
        "--drop-nodes", "1",
    ]);
    assert_eq!(code, 2, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("node_losses\t1"), "stdout: {stdout}");
    assert!(stdout.contains("unrecovered_losses\t0"), "stdout: {stdout}");
}

/// The controller report is byte-identical across thread and shard
/// counts — the CLI surface of the §12 determinism contract.
#[test]
fn online_run_is_byte_identical_across_threads_and_shards() {
    let base = [
        "run", "--preset", "tiny", "--nodes", "4", "--epochs", "80", "--seed", "7",
        "--drop-nodes", "1",
    ];
    let reference = {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--threads", "1"]);
        run_code(&args)
    };
    assert_eq!(reference.0, 2, "reference run: {}", reference.1);
    for threads in ["2", "8"] {
        for shards in ["1", "2", "7"] {
            let mut args: Vec<&str> = base.to_vec();
            args.extend(["--threads", threads, "--shards", shards]);
            let (code, stdout, stderr) = run_code(&args);
            assert_eq!(code, reference.0, "threads {threads} shards {shards}: {stderr}");
            assert_eq!(
                stdout, reference.1,
                "threads {threads} shards {shards} changed the report"
            );
        }
    }
}

/// `run --out` persists exactly the bytes printed to stdout, and the file
/// round-trips through the report reader.
#[test]
fn online_run_saves_readable_report() {
    let dir = std::env::temp_dir().join(format!("cca-cli-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("report.tsv");
    let path_str = path.to_str().expect("utf-8 path");

    let (code, stdout, stderr) = run_code(&[
        "run", "--preset", "tiny", "--nodes", "4", "--epochs", "40", "--seed", "3",
        "--out", path_str,
    ]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let saved = std::fs::read_to_string(&path).expect("report written");
    assert_eq!(saved, stdout, "--out and stdout disagree");
    let report = cca::algo::read_controller_report(saved.as_bytes()).expect("parseable report");
    assert_eq!(report.epochs, 40);
    assert!(report.counters_consistent());

    std::fs::remove_dir_all(&dir).ok();
}

/// `serve` follows the workspace exit taxonomy: 0 = every query served
/// in budget, 2 = degraded/shed queries present (with the shed counters
/// accounting for them — never a hang or panic), 3 = infeasible placement.
#[test]
fn serve_exit_taxonomy_and_report_shape() {
    let base = ["serve", "--preset", "tiny", "--nodes", "4", "--seed", "11", "--queries", "400"];
    let (code, stdout, stderr) = run_code(&base);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.starts_with("# cca-serving-report v1"), "stdout: {stdout}");
    for needle in [
        "queries\t400",
        "served\t400",
        "shed_admission\t0",
        "shed_overload\t0",
        "shed_deadline\t0",
        "digest\t",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in {stdout}");
    }
    assert!(stderr.contains("queries/s"), "stderr: {stderr}");

    // A zero deadline is the tightest budget: every query sheds at
    // admission, all of them accounted, and the exit code says degraded.
    let mut args = base.to_vec();
    args.extend(["--deadline-ms", "0"]);
    let (code, stdout, stderr) = run_code(&args);
    assert_eq!(code, 2, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("served\t0"), "stdout: {stdout}");
    assert!(stdout.contains("shed_admission\t400"), "stdout: {stdout}");

    // An infeasible placement trumps the serving outcome.
    let mut args = base.to_vec();
    args.extend(["--capacity-factor", "0.4"]);
    let (code, _, stderr) = run_code(&args);
    assert_eq!(code, 3, "stderr: {stderr}");
}

/// A tight-but-nonzero deadline on the default workload sheds the
/// heavy tail while serving the rest — a genuinely mixed report, still
/// exiting 2 with every query accounted.
#[test]
fn serve_tight_deadline_sheds_heavy_tail() {
    let (code, stdout, stderr) = run_code(&[
        "serve", "--preset", "small", "--seed", "11",
        "--queries", "4000", "--deadline-ms", "1",
    ]);
    assert_eq!(code, 2, "stdout: {stdout}\nstderr: {stderr}");
    let field = |key: &str| -> u64 {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{key}\t")))
            .unwrap_or_else(|| panic!("missing {key} in {stdout}"))
            .parse()
            .expect("numeric field")
    };
    let (served, degraded, shed) = (field("served"), field("degraded"), field("shed_admission"));
    assert!(served > 0, "some queries must fit the budget: {stdout}");
    assert!(degraded + shed > 0, "the tail must exceed 1ms: {stdout}");
    assert_eq!(
        served + degraded + shed + field("shed_overload") + field("shed_deadline"),
        field("queries"),
        "shed queries must be accounted: {stdout}"
    );
}

/// The serving report is byte-identical across thread, shard, and
/// inflight counts — the CLI surface of the §13 determinism contract.
#[test]
fn serve_report_is_byte_identical_across_threads_shards_inflight() {
    let base = [
        "serve", "--preset", "tiny", "--nodes", "4", "--seed", "7",
        "--queries", "500", "--deadline-ms", "1",
    ];
    let reference = {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--threads", "1", "--inflight", "1"]);
        run_code(&args)
    };
    assert!(
        reference.1.starts_with("# cca-serving-report v1"),
        "reference run: {}",
        reference.1
    );
    for threads in ["2", "8"] {
        for shards in ["1", "2", "7"] {
            for inflight in ["1", "64"] {
                let mut args: Vec<&str> = base.to_vec();
                args.extend([
                    "--threads", threads, "--shards", shards, "--inflight", inflight,
                ]);
                let (code, stdout, stderr) = run_code(&args);
                assert_eq!(
                    code, reference.0,
                    "threads {threads} shards {shards} inflight {inflight}: {stderr}"
                );
                assert_eq!(
                    stdout, reference.1,
                    "threads {threads} shards {shards} inflight {inflight} changed the report"
                );
            }
        }
    }
}

/// `serve --out` persists exactly the bytes printed to stdout, and the
/// file round-trips through the serving-report reader.
#[test]
fn serve_saves_readable_report() {
    let dir = std::env::temp_dir().join(format!("cca-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("serving.tsv");
    let path_str = path.to_str().expect("utf-8 path");

    let (code, stdout, stderr) = run_code(&[
        "serve", "--preset", "tiny", "--nodes", "4", "--seed", "3",
        "--queries", "300", "--out", path_str,
    ]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let saved = std::fs::read_to_string(&path).expect("report written");
    assert_eq!(saved, stdout, "--out and stdout disagree");
    let report = cca::algo::read_serving_report(saved.as_bytes()).expect("parseable report");
    assert_eq!(report.queries, 300);
    assert!(report.counters_consistent());

    std::fs::remove_dir_all(&dir).ok();
}

/// Degenerate counts are rejected at parse time with a uniform message,
/// before any pipeline work starts.
#[test]
fn count_options_reject_zero_uniformly() {
    for (cmd, flag) in [
        ("run", "--epochs"),
        ("run", "--queries-per-epoch"),
        ("run", "--threads"),
        ("run", "--shards"),
        ("run", "--drop-nodes"),
        ("place", "--nodes"),
        ("probe", "--candidates"),
        ("serve", "--queries"),
        ("serve", "--inflight"),
    ] {
        // --drop-nodes 0 is legal (chaos off); everything else must fail.
        let (code, _, stderr) = run_code(&[
            cmd, "--preset", "tiny", "--epochs", "30", flag, "0",
        ]);
        if flag == "--drop-nodes" {
            assert_eq!(code, 0, "{cmd} {flag} 0 should be a clean run: {stderr}");
            continue;
        }
        assert_eq!(code, 1, "{cmd} {flag} 0 must be a usage error");
        assert!(
            stderr.contains(&format!("{flag} must be at least 1")),
            "{cmd} {flag}: stderr: {stderr}"
        );
        // Non-numeric input fails through the same helper.
        let (code, _, stderr) = run_code(&[cmd, "--preset", "tiny", flag, "soon"]);
        assert_eq!(code, 1, "{cmd} {flag} soon must be a usage error");
        assert!(stderr.contains(flag), "{cmd} {flag}: stderr: {stderr}");
    }

    let (code, _, stderr) = run_code(&[
        "run", "--preset", "tiny", "--drift-sigma", "-0.5",
    ]);
    assert_eq!(code, 1);
    assert!(
        stderr.contains("--drift-sigma must be a finite non-negative number"),
        "stderr: {stderr}"
    );
}

#[test]
fn workload_saves_readable_query_log() {
    let dir = std::env::temp_dir().join(format!("cca-cli-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("queries.log");
    let path_str = path.to_str().expect("utf-8 path");

    let (ok, _, stderr) = run(&["workload", "--preset", "tiny", "--out", path_str]);
    assert!(ok, "stderr: {stderr}");
    let file = std::fs::File::open(&path).expect("log written");
    let log = cca::trace::read_query_log(file).expect("parseable log");
    assert!(!log.is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

/// The pinned `live` replay scenario: a placement solved for the warm
/// ("January") workload, a regime shift applied before epoch 1, then a
/// stationary replay. The controller must stage a migration, pace it
/// under the per-epoch byte budget, and the post-migration window must
/// ship strictly fewer bytes per query — the tentpole headline, driven
/// end to end through the binary.
const LIVE_REPLAY: [&str; 19] = [
    "live", "--preset", "tiny", "--nodes", "4", "--seed", "42",
    "--epochs", "80", "--queries-per-epoch", "256",
    "--drift-sigma", "0.25", "--drift-epochs", "0",
    "--warm-drift", "24", "--migration-budget", "4096",
];

#[test]
fn live_replay_migrates_under_budget_and_improves() {
    let (code, stdout, stderr) = run_code(&LIVE_REPLAY);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.starts_with("# cca-live-report v1"), "stdout: {stdout}");
    let report = cca::algo::read_live_report(stdout.as_bytes()).expect("parseable report");
    assert!(report.counters_consistent(), "counters: {stdout}");
    assert!(report.migrations >= 1, "the regime shift must trigger a migration: {stdout}");
    assert!(report.within_budget(), "pacing contract: {stdout}");
    assert!(
        report.improved(),
        "post-migration bytes/query must beat pre-migration: {stdout}"
    );
    assert!(stderr.contains("pre-migration ->"), "stderr summary: {stderr}");
}

/// `live` follows the same exit taxonomy as `serve`: 2 when any query
/// was degraded or shed (here: a zero deadline sheds everything at
/// admission, still fully accounted), 3 when the placement is
/// infeasible.
#[test]
fn live_exit_taxonomy() {
    let base = [
        "live", "--preset", "tiny", "--nodes", "4", "--seed", "42",
        "--epochs", "10", "--queries-per-epoch", "64",
    ];
    let mut args = base.to_vec();
    args.extend(["--deadline-ms", "0"]);
    let (code, stdout, stderr) = run_code(&args);
    assert_eq!(code, 2, "stdout: {stdout}\nstderr: {stderr}");
    let report = cca::algo::read_live_report(stdout.as_bytes()).expect("parseable report");
    assert_eq!(report.served, 0, "zero deadline must shed everything");
    assert_eq!(report.shed_admission, report.queries);
    assert!(report.counters_consistent());

    let mut args = base.to_vec();
    args.extend(["--capacity-factor", "0.4"]);
    let (code, _, stderr) = run_code(&args);
    assert_eq!(code, 3, "stderr: {stderr}");
}

/// The live report is byte-identical across thread, shard, and inflight
/// counts — the §14 determinism contract surfaced through the CLI, with
/// migration slices interleaved mid-run.
#[test]
fn live_report_is_byte_identical_across_threads_shards_inflight() {
    let reference = {
        let mut args: Vec<&str> = LIVE_REPLAY.to_vec();
        args.extend(["--threads", "1", "--inflight", "1"]);
        run_code(&args)
    };
    assert!(
        reference.1.starts_with("# cca-live-report v1"),
        "reference run: {}",
        reference.1
    );
    for threads in ["2", "8"] {
        for shards in ["1", "2", "7"] {
            for inflight in ["1", "64"] {
                let mut args: Vec<&str> = LIVE_REPLAY.to_vec();
                args.extend([
                    "--threads", threads, "--shards", shards, "--inflight", inflight,
                ]);
                let (code, stdout, stderr) = run_code(&args);
                assert_eq!(
                    code, reference.0,
                    "threads {threads} shards {shards} inflight {inflight}: {stderr}"
                );
                assert_eq!(
                    stdout, reference.1,
                    "threads {threads} shards {shards} inflight {inflight} changed the report"
                );
            }
        }
    }
}

/// `live --out` persists exactly the bytes printed to stdout, and the
/// file round-trips through the live-report reader.
#[test]
fn live_saves_readable_report() {
    let dir = std::env::temp_dir().join(format!("cca-cli-live-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("live.tsv");
    let path_str = path.to_str().expect("utf-8 path");

    let mut args: Vec<&str> = LIVE_REPLAY.to_vec();
    args.extend(["--out", path_str]);
    let (code, stdout, stderr) = run_code(&args);
    assert_eq!(code, 0, "stderr: {stderr}");
    let saved = std::fs::read_to_string(&path).expect("report written");
    assert_eq!(saved, stdout, "--out and stdout disagree");
    let report = cca::algo::read_live_report(saved.as_bytes()).expect("parseable report");
    assert_eq!(report.epochs, 80);
    assert!(report.counters_consistent());

    std::fs::remove_dir_all(&dir).ok();
}

/// The live-only flags reject malformed input through the same uniform
/// usage errors as the rest of the surface.
#[test]
fn live_flags_reject_bad_input() {
    let (code, _, stderr) = run_code(&["live", "--preset", "tiny", "--migration-budget", "0"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--migration-budget must be at least 1"), "stderr: {stderr}");

    let (code, _, stderr) = run_code(&["live", "--preset", "tiny", "--drift-epochs", "soon"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--drift-epochs"), "stderr: {stderr}");

    let (code, _, stderr) = run_code(&["live", "--preset", "tiny", "--warm-drift", "soon"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--warm-drift"), "stderr: {stderr}");
}

// ---------------------------------------------------------------------
// Replica flags (`--replicas` / `--domains`, DESIGN.md §15).
// ---------------------------------------------------------------------

/// `--replicas 0` dies at parse time through the shared count layer,
/// with the uniform "must be at least 1" message — on every command
/// that accepts the flag.
#[test]
fn replicas_zero_rejected_at_parse_time() {
    for cmd in ["place", "probe", "serve", "run", "live"] {
        let (code, _, stderr) = run_code(&[cmd, "--preset", "tiny", "--replicas", "0"]);
        assert_eq!(code, 1, "{cmd}: wrong exit code");
        assert!(
            stderr.contains("--replicas must be at least 1"),
            "{cmd} stderr: {stderr}"
        );
    }
}

/// More replicas than leaf domains is unsatisfiable (the spread
/// invariant needs one distinct leaf per copy): typed error, usage exit,
/// before any pipeline work — on every command that accepts the flags.
#[test]
fn replicas_exceeding_domains_rejected_everywhere() {
    for cmd in ["place", "probe", "serve", "run", "live"] {
        let (code, _, stderr) = run_code(&[
            cmd, "--preset", "tiny", "--nodes", "4", "--replicas", "3", "--domains", "2",
        ]);
        assert_eq!(code, 1, "{cmd}: wrong exit code");
        assert!(
            stderr.contains("cannot spread 3 replicas across 2 leaf domains"),
            "{cmd} stderr: {stderr}"
        );
    }
}

/// Malformed `--domains` specs fail with the parse error, uniformly.
#[test]
fn domains_flag_rejects_bad_specs() {
    // Not a spec at all.
    let (code, _, stderr) =
        run_code(&["place", "--preset", "tiny", "--nodes", "4", "--domains", "many"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--domains"), "stderr: {stderr}");

    // More leaf domains than nodes.
    let (code, _, stderr) = run_code(&[
        "place", "--preset", "tiny", "--nodes", "4", "--domains", "5x2", "--replicas", "2",
    ]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--domains"), "stderr: {stderr}");

    // Zero domains.
    let (code, _, stderr) =
        run_code(&["serve", "--preset", "tiny", "--nodes", "4", "--domains", "0"]);
    assert_eq!(code, 1);
    assert!(stderr.contains("--domains"), "stderr: {stderr}");
}

/// The r=1 equivalence contract at the CLI surface: `--replicas 1
/// --domains flat` is the default, so spelling it out must not change a
/// byte of output anywhere.
#[test]
fn replicas_one_flat_tree_is_byte_identical_to_default() {
    let base = [
        "place", "--preset", "tiny", "--nodes", "3", "--scope", "40",
        "--strategy", "greedy", "--seed", "7",
    ];
    let reference = run_code(&base);
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--replicas", "1", "--domains", "flat"]);
    let explicit = run_code(&args);
    assert_eq!(explicit.0, reference.0, "exit code changed");
    assert_eq!(explicit.1, reference.1, "--replicas 1 --domains flat changed stdout");
}

/// `place --replicas 2` reports the replica spread and persists a
/// v2 placement file that the reader round-trips.
#[test]
fn place_replicated_saves_v2_placement() {
    let dir = std::env::temp_dir().join(format!("cca-cli-replica-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("replicas.tsv");
    let path_str = path.to_str().expect("utf-8 path");

    let (code, stdout, stderr) = run_code(&[
        "place", "--preset", "tiny", "--nodes", "4", "--scope", "40",
        "--strategy", "greedy", "--replicas", "2", "--domains", "2",
        "--out", path_str,
    ]);
    assert_eq!(code, 0, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("replicated x2"), "stdout: {stdout}");
    assert!(stdout.contains("spread valid: true"), "stdout: {stdout}");
    assert!(stdout.contains("copy-inclusive loads"), "stdout: {stdout}");
    let saved = std::fs::read_to_string(&path).expect("placement file written");
    assert!(
        saved.starts_with("# cca-placement v2"),
        "replicated placements must use the v2 format: {}",
        saved.lines().next().unwrap_or("")
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `serve --replicas 2` runs the replicated read path end to end: the
/// stdout report keeps its shape and counters, the replica summary goes
/// to stderr only.
#[test]
fn serve_replicated_reports_consistently() {
    let (code, stdout, stderr) = run_code(&[
        "serve", "--preset", "tiny", "--nodes", "4", "--seed", "11",
        "--queries", "200", "--replicas", "2", "--domains", "2",
    ]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let report = cca::algo::read_serving_report(stdout.as_bytes()).expect("parseable report");
    assert_eq!(report.queries, 200);
    assert!(report.counters_consistent());
    assert!(
        stderr.contains("replicating 2 copies across 2 leaf domains"),
        "stderr: {stderr}"
    );
}
